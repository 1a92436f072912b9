package statehash

// Walk visits a stateful component's mutable fields in window order. A
// component lists its fields once, in a State(*Walk) method, and that one
// list serves all three passes over its state window: Len counts the words,
// Read copies the fields into a window, Write copies a window back into the
// fields.
type Walk struct {
	win  []uint64
	i    int
	pass pass
}

type pass uint8

const (
	counting pass = iota
	reading
	restoring
)

// Stateful is a component with a state window.
type Stateful interface{ State(w *Walk) }

// Len returns the length of s's state window in words.
func Len(s Stateful) int {
	w := Walk{}
	s.State(&w)
	return w.i
}

// Read copies s's state window into dst and returns the words written.
func Read(s Stateful, dst []uint64) int {
	w := Walk{win: dst, pass: reading}
	s.State(&w)
	return w.i
}

// Write restores s from a window Read took and returns the words consumed.
func Write(s Stateful, src []uint64) int {
	w := Walk{win: src, pass: restoring}
	s.State(&w)
	return w.i
}

// Restoring reports whether the walk writes the window into the fields, so
// a component can rebuild the state it derives from them.
func (w *Walk) Restoring() bool { return w.pass == restoring }

// U64 walks one word.
func (w *Walk) U64(p *uint64) {
	switch w.pass {
	case reading:
		w.win[w.i] = *p
	case restoring:
		*p = w.win[w.i]
	}
	w.i++
}

// Words walks a slice whose length is fixed at the component's construction.
func (w *Walk) Words(s []uint64) {
	switch w.pass {
	case reading:
		copy(w.win[w.i:w.i+len(s)], s)
	case restoring:
		copy(s, w.win[w.i:w.i+len(s)])
	}
	w.i += len(s)
}

// Int walks an int as one word.
func (w *Walk) Int(p *int) {
	v := uint64(*p)
	w.U64(&v)
	*p = int(v)
}

// I64 walks an int64 as one word.
func (w *Walk) I64(p *int64) {
	v := uint64(*p)
	w.U64(&v)
	*p = int64(v)
}

// I32 walks an int32 as one zero-extended word.
func (w *Walk) I32(p *int32) {
	v := uint64(uint32(*p))
	w.U64(&v)
	*p = int32(uint32(v))
}

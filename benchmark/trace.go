package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one bracketed region of the traced pass: a call from the
// benchmark into one layer. Times are Unix nanoseconds, so spans recorded
// by a child process line up with the parent's.
type span struct {
	Workload string `json:"workload,omitempty"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Parent is the index of the enclosing span in the same list, -1 for
	// a root. Rep numbers the repetition the span belongs to.
	Parent int `json:"parent"`
	Rep    int `json:"rep"`
}

// spanLog keeps spans in memory until the benchmark ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records one finished span.
func (l *spanLog) add(name, layer string, start, end time.Time, parent, rep int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Layer: layer,
		StartNS: start.UnixNano(), EndNS: end.UnixNano(), Parent: parent, Rep: rep})
}

// selfNS returns each span's self time: its duration minus the part its
// direct children cover. Children of one parent are sequential here, so
// their durations add.
func selfNS(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 && s.Parent < len(spans) {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// writeSpans writes spans as JSONL.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

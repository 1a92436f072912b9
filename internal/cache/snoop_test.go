package cache

import "testing"

func TestSnoopFilterFiltersUntracked(t *testing.T) {
	f := NewSnoopFilter(4)
	if f.Snoop(0x1000, 7) {
		t.Error("untracked line forwarded")
	}
	if f.Requests != 1 || f.Filtered != 1 {
		t.Errorf("counters: %d requests, %d filtered", f.Requests, f.Filtered)
	}
}

func TestSnoopFilterForwardsTracked(t *testing.T) {
	f := NewSnoopFilter(4)
	f.Track(0x2000, 7)
	if !f.Snoop(0x2000, 7) {
		t.Error("tracked line filtered")
	}
	if !f.Snoop(0x2040, 7) {
		t.Error("same-line offset filtered")
	}
	if f.Filtered != 0 {
		t.Errorf("Filtered = %d", f.Filtered)
	}
	f.Invalidated()
	if f.Invalidates != 1 {
		t.Error("invalidate not counted")
	}
}

func TestSnoopFilterEvictsOldEntries(t *testing.T) {
	f := NewSnoopFilter(2)
	f.Track(0<<7, 7)
	f.Track(1<<7, 7)
	f.Track(2<<7, 7) // evicts line 0
	if f.Snoop(0, 7) {
		t.Error("evicted entry still forwarded")
	}
	if !f.Snoop(2<<7, 7) {
		t.Error("resident entry filtered")
	}
}

func TestSnoopFilterTrackIdempotent(t *testing.T) {
	f := NewSnoopFilter(2)
	f.Track(0x100, 7)
	f.Track(0x100, 7) // must not consume a second slot
	f.Track(0x200, 7)
	if !f.Snoop(0x100, 7) || !f.Snoop(0x200, 7) {
		t.Error("duplicate Track consumed capacity")
	}
}

func TestSnoopFilterBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewSnoopFilter(0)
}

func TestCacheInvalidate(t *testing.T) {
	c := New(Config{Name: "inv", SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, WriteBack: true})
	c.Access(0x40, true) // dirty line
	if !c.Invalidate(0x40) {
		t.Fatal("resident line not invalidated")
	}
	if c.Contains(0x40) {
		t.Error("line survived invalidation")
	}
	if c.Invalidate(0x40) {
		t.Error("absent line invalidated")
	}
	// The dropped dirty bit must not resurface as a writeback.
	r := c.Access(0x40, false)
	if r.VictimDirty {
		t.Error("invalidated line produced a dirty victim")
	}
}

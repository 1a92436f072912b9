package memory

import "testing"

func TestReadLatencyGrowsWithSharers(t *testing.T) {
	c := NewController(0, DefaultConfig())
	l1 := c.ReadLine(1)
	l4 := c.ReadLine(4)
	if l4 <= l1 {
		t.Errorf("latency with 4 active cores (%d) not above single-core (%d)", l4, l1)
	}
	want := DefaultConfig().ReadLatency + 3*DefaultConfig().QueuePenalty
	if l4 != want {
		t.Errorf("4-core latency = %d, want %d", l4, want)
	}
}

func TestWritePosted(t *testing.T) {
	c := NewController(0, DefaultConfig())
	w := c.WriteLine(1)
	r := c.ReadLine(1)
	if w >= r {
		t.Errorf("posted write stall (%d) should be far below read latency (%d)", w, r)
	}
	if c.WriteLines != 1 || c.ReadLines != 1 {
		t.Errorf("counters = %d reads / %d writes, want 1/1", c.ReadLines, c.WriteLines)
	}
}

func TestWriteContention(t *testing.T) {
	c := NewController(0, DefaultConfig())
	if c.WriteLine(4) <= c.WriteLine(1) {
		t.Error("contended write stall not above uncontended")
	}
}

func TestPrefetchCountsTrafficWithoutStall(t *testing.T) {
	c := NewController(0, DefaultConfig())
	c.PrefetchLine()
	if c.ReadLines != 1 {
		t.Errorf("ReadLines = %d, want 1", c.ReadLines)
	}
}

func TestDMALines(t *testing.T) {
	c := NewController(1, DefaultConfig())
	c.DMALines(10, true)
	c.DMALines(4, false)
	if c.ReadLines != 10 || c.WriteLines != 4 {
		t.Errorf("DMA counters = %d/%d, want 10/4", c.ReadLines, c.WriteLines)
	}
	if got, want := c.TrafficBytes(), uint64(14*LineBytes); got != want {
		t.Errorf("TrafficBytes = %d, want %d", got, want)
	}
}

func TestZeroLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for zero read latency")
		}
	}()
	NewController(0, Config{})
}

func TestID(t *testing.T) {
	if NewController(1, DefaultConfig()).ID() != 1 {
		t.Error("ID mismatch")
	}
}

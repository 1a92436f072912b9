package epochmemo

import "testing"

func key(b byte) Key {
	var k Key
	k[0] = b
	return k
}

func TestGetPut(t *testing.T) {
	c := New(0)
	if v := c.Get(key(1)); v != nil {
		t.Fatal("hit on empty cache")
	}
	c.Put(key(1), "one", 8)
	if v := c.Get(key(1)); v != "one" {
		t.Fatalf("got %v, want one", v)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Stores != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestPutIdempotent(t *testing.T) {
	c := New(0)
	c.Put(key(1), "first", 8)
	c.Put(key(1), "second", 8)
	if v := c.Get(key(1)); v != "first" {
		t.Fatalf("duplicate Put replaced entry: %v", v)
	}
	s := c.Stats()
	if s.Stores != 1 || s.Dropped != 1 || s.Cost != 8 {
		t.Fatalf("stats %+v", s)
	}
}

func TestEvictionLRU(t *testing.T) {
	c := New(30)
	c.Put(key(1), 1, 10)
	c.Put(key(2), 2, 10)
	c.Put(key(3), 3, 10)
	// Touch 1 so 2 is least recently used, then overflow.
	c.Get(key(1))
	c.Put(key(4), 4, 10)
	if c.Get(key(2)) != nil {
		t.Fatal("LRU entry survived eviction")
	}
	if c.Get(key(1)) == nil || c.Get(key(3)) == nil || c.Get(key(4)) == nil {
		t.Fatal("recently used entries evicted")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Cost != 30 || s.Entries != 3 {
		t.Fatalf("stats %+v", s)
	}
}

func TestOversizedDropped(t *testing.T) {
	c := New(10)
	c.Put(key(1), 1, 5)
	c.Put(key(2), 2, 100)
	if c.Get(key(2)) != nil {
		t.Fatal("oversized entry stored")
	}
	if c.Get(key(1)) == nil {
		t.Fatal("oversized Put evicted resident entries")
	}
}

func TestSetBudgetEvictsDownToBound(t *testing.T) {
	c := New(0)
	for b := byte(1); b <= 4; b++ {
		c.Put(key(b), int(b), 10)
	}
	c.Get(key(1)) // make 2 the LRU entry
	c.SetBudget(25)
	if c.Get(key(2)) != nil || c.Get(key(3)) != nil {
		t.Fatal("SetBudget kept least-recently-used entries over the bound")
	}
	if c.Get(key(1)) == nil || c.Get(key(4)) == nil {
		t.Fatal("SetBudget evicted recently used entries")
	}
	if s := c.Stats(); s.Cost != 20 || s.Entries != 2 || s.Evictions != 2 {
		t.Fatalf("stats %+v", s)
	}
	// Growing (or unbounding) the budget evicts nothing.
	c.SetBudget(0)
	c.Put(key(5), 5, 1000)
	if c.Get(key(5)) == nil {
		t.Fatal("unbounded cache rejected an entry")
	}
}

func TestKeys(t *testing.T) {
	c := New(0)
	c.Put(key(1), "a", 1)
	c.Put(key(2), "b", 1)
	seen := map[Key]bool{}
	for _, k := range c.Keys() {
		seen[k] = true
	}
	if len(seen) != 2 || !seen[key(1)] || !seen[key(2)] {
		t.Fatalf("Keys returned %v", seen)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("Keys touched stats: %+v", s)
	}
}

// TestSecondSightAdmission walks one run identity through the admission
// policy: unseen, marked, recorded — a record takes its mark's place, and a
// dropped record gives the mark back — and unseen again once its entry has
// been evicted.
func TestSecondSightAdmission(t *testing.T) {
	c := New(0)
	ka, seen, rec := c.Admit("identity-a")
	if seen || rec != nil {
		t.Fatal("a never-seen identity was admitted")
	}
	if s := c.Stats(); s.Entries != 1 || s.Cost != SeenCost {
		t.Fatalf("after the first Admit: %+v, want one mark of %d B", s, SeenCost)
	}
	for run := 2; run <= 3; run++ {
		if k, seen, rec := c.Admit("identity-a"); k != ka || !seen || rec != nil {
			t.Fatalf("run %d of a marked identity: key %x (want %x), seen %t, record %v", run, k[:4], ka[:4], seen, rec)
		}
	}
	if kb, seen, _ := c.Admit("identity-b"); seen || kb == ka {
		t.Fatal("one identity's mark admitted another")
	}
	if s := c.Stats(); s.Entries != 2 || s.Cost != 2*SeenCost {
		t.Fatalf("two identities: %+v, want two marks", s)
	}

	// The record replaces the mark under the identity's one key, a second
	// record the first, and Drop gives the mark back.
	if !c.Record(ka, "chain", 1000) {
		t.Fatal("Record over a mark was rejected")
	}
	if s := c.Stats(); s.Entries != 2 || s.Cost != 1000+SeenCost {
		t.Fatalf("one record, one mark: %+v", s)
	}
	if _, seen, rec := c.Admit("identity-a"); !seen || rec != "chain" {
		t.Fatalf("a recorded identity: seen %t, record %v", seen, rec)
	}
	c.Record(ka, "chain-2", 500)
	if _, _, rec := c.Admit("identity-a"); rec != "chain-2" {
		t.Fatalf("a re-recorded identity holds %v", rec)
	}
	c.Drop(ka)
	if _, seen, rec := c.Admit("identity-a"); !seen || rec != nil {
		t.Fatalf("after Drop: seen %t, record %v; want the bare mark", seen, rec)
	}
	if s := c.Stats(); s.Entries != 2 || s.Cost != 2*SeenCost {
		t.Fatalf("after Drop: %+v, want two marks", s)
	}

	// A budget of one mark: the second identity's mark evicts the first's,
	// which is then a first run again — never anything worse.
	c = New(SeenCost)
	c.Admit("identity-a")
	c.Admit("identity-b")
	if _, seen, _ := c.Admit("identity-a"); seen {
		t.Fatal("an identity whose mark was evicted was admitted")
	}
	if s := c.Stats(); s.Entries != 1 || s.Evictions != 2 {
		t.Fatalf("under a one-mark budget: %+v, want one surviving mark and two evictions", s)
	}
}

package main

// bgpd_mix's job sequence: a fixed function of the seed. Nothing here
// looks at the clock or at the daemon; the load generator only walks the
// sequence.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"bgpsim/internal/experiments"
)

// jobKind says how bgpd is expected to serve a job.
type jobKind int

const (
	// kindFresh is a configuration bgpd has never seen: it simulates.
	kindFresh jobKind = iota
	// kindRepeat is a configuration completed earlier, sent by a tenant
	// that has not asked for it yet: a new job served from the store.
	kindRepeat
	// kindResubmit repeats an earlier job's tenant and spec exactly: the
	// job table answers 200 with the existing job.
	kindResubmit
	// kindPairA and kindPairB are adjacent slots holding one fresh
	// configuration under two tenants. Two clients meet before posting,
	// so one job simulates and the other coalesces onto it in flight.
	kindPairA
	kindPairB
)

func (k jobKind) String() string {
	return [...]string{"fresh", "repeat", "resubmit", "pair", "pair"}[k]
}

// runConfig is one point of the configuration space jobs are drawn from.
type runConfig struct {
	Kernel  string // a NAS kernel, or "hpl" for specs/hpl.yaml sent by value
	Class   string
	Ranks   int
	Mode    string
	Opts    string
	L3Bytes int
}

// slot is one job of the sequence.
type slot struct {
	Kind   jobKind
	Config int // index into sequence.Configs
	Tenant int
}

// sequence is a generated job sequence.
type sequence struct {
	Configs []runConfig
	Slots   []slot
	hplYAML string
}

const (
	numTenants = 8
	// Repeats and resubmits point at least reuseLag slots back, so that
	// with a couple of closed-loop clients the job they reuse has
	// completed, not merely been posted.
	reuseLag = 16
)

// configSpace enumerates every configuration as one deck per stratum —
// kernel × ranks × class, the properties a job's cost depends on most — and
// returns the cycle in which fresh configurations visit the strata: every
// class-S stratum four times and every class-W stratum once, so one in five
// is class W.
func configSpace() (decks [][]runConfig, cycle []int) {
	for _, k := range append(experiments.SuiteNames(), "hpl") {
		for _, ranks := range []int{4, 8, 16} {
			for _, class := range []string{"S", "W"} {
				var deck []runConfig
				for _, mode := range []string{"smp1", "smp4", "dual", "vnm"} {
					for _, opts := range experiments.CompilerConfigs() {
						for _, l3 := range []int{0, -1, 2 << 20, 4 << 20} {
							deck = append(deck, runConfig{Kernel: k, Class: class, Ranks: ranks,
								Mode: mode, Opts: opts.String(), L3Bytes: l3})
						}
					}
				}
				visits := 4
				if class == "W" {
					visits = 1
				}
				for i := 0; i < visits; i++ {
					cycle = append(cycle, len(decks))
				}
				decks = append(decks, deck)
			}
		}
	}
	return decks, cycle
}

// newSequence generates at least n job slots from the seed, in whole
// blocks. The first reuseLag slots are all fresh, to give repeats something
// to point at; after that the sequence is made of shuffled blocks. Fresh
// configurations are drawn without replacement, visiting the strata in
// shuffled cycles, which keeps the cost of the mix steady from seed to seed
// and from one stretch of the sequence to the next.
func newSequence(seed int64, n int, hplYAML string) *sequence {
	rng := rand.New(rand.NewSource(seed))
	decks, cycle := configSpace()
	for _, deck := range decks {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	}
	var order []int // what is left of the current cycle

	q := &sequence{hplYAML: hplYAML}
	// askedBy[c] is the set of tenants that have asked for config c;
	// issuedAt[c] is the slot that first did.
	var askedBy []uint
	var issuedAt []int
	fresh := func() int {
		if len(order) == 0 {
			order = append(order, cycle...)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		deck := &decks[order[0]]
		order = order[1:]
		k := len(q.Configs)
		q.Configs = append(q.Configs, (*deck)[0])
		*deck = (*deck)[1:]
		askedBy = append(askedBy, 0)
		issuedAt = append(issuedAt, len(q.Slots))
		return k
	}
	add := func(kind jobKind, cfg, tenant int) {
		askedBy[cfg] |= 1 << uint(tenant)
		q.Slots = append(q.Slots, slot{Kind: kind, Config: cfg, Tenant: tenant})
	}
	// oldConfigs counts the configurations first issued reuseLag or more
	// slots ago. issuedAt is ascending and slots are only appended, so
	// the count only grows.
	old := 0
	oldConfigs := func() int {
		for old < len(issuedAt) && issuedAt[old] <= len(q.Slots)-reuseLag {
			old++
		}
		return old
	}

	for len(q.Slots) < reuseLag {
		add(kindFresh, fresh(), rng.Intn(numTenants))
	}
	for len(q.Slots) < n {
		// One block of 40 jobs: 10 fresh, 20 repeat, 4 resubmit and
		// 3 pairs, shuffled, which keeps the kind shares exact.
		units := make([]jobKind, 0, 37)
		for i := 0; i < 10; i++ {
			units = append(units, kindFresh)
		}
		for i := 0; i < 20; i++ {
			units = append(units, kindRepeat)
		}
		for i := 0; i < 4; i++ {
			units = append(units, kindResubmit)
		}
		for i := 0; i < 3; i++ {
			units = append(units, kindPairA)
		}
		rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
		for _, kind := range units {
			switch kind {
			case kindFresh:
				add(kindFresh, fresh(), rng.Intn(numTenants))
			case kindRepeat:
				// A configuration every tenant has asked for already
				// cannot be repeated as a new job; draw again.
				for {
					cfg := rng.Intn(oldConfigs())
					if askedBy[cfg] == 1<<numTenants-1 {
						continue
					}
					tenant := rng.Intn(numTenants)
					for askedBy[cfg]&(1<<uint(tenant)) != 0 {
						tenant = (tenant + 1) % numTenants
					}
					add(kindRepeat, cfg, tenant)
					break
				}
			case kindResubmit:
				prev := q.Slots[rng.Intn(len(q.Slots)-reuseLag+1)]
				add(kindResubmit, prev.Config, prev.Tenant)
			case kindPairA:
				cfg, a := fresh(), rng.Intn(numTenants)
				add(kindPairA, cfg, a)
				add(kindPairB, cfg, (a+1+rng.Intn(numTenants-1))%numTenants)
			}
		}
	}
	return q
}

// hash identifies the sequence: a sha256 over every slot and the
// configuration it names.
func (q *sequence) hash() string {
	h := sha256.New()
	for _, s := range q.Slots {
		fmt.Fprintf(h, "%d %d %+v\n", s.Kind, s.Tenant, q.Configs[s.Config])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// body renders a slot as the JSON a client posts to /v1/jobs.
func (q *sequence) body(s slot) []byte {
	return jobBody(q.Configs[s.Config], s.Tenant, q.hplYAML)
}

// jobBody renders a single-run job for configuration c.
func jobBody(c runConfig, tenant int, hplYAML string) []byte {
	run := map[string]any{
		"class": c.Class, "ranks": c.Ranks, "mode": c.Mode, "opts": c.Opts,
	}
	if c.Kernel == "hpl" {
		run["workload"] = hplYAML
	} else {
		run["benchmark"] = c.Kernel
	}
	if c.L3Bytes != 0 {
		run["l3_bytes"] = c.L3Bytes
	}
	b, err := json.Marshal(map[string]any{
		"tenant": fmt.Sprintf("tenant-%d", tenant),
		"runs":   []any{run},
	})
	if err != nil {
		panic(err) // maps of strings and ints always marshal
	}
	return b
}

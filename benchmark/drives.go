package main

// Direct drives: timed loops over one layer's exported function, with
// inputs of the size the workloads feed it. They run after all end-to-end
// timing, so they cannot warm or evict anything that is being timed, and
// they do not depend on the workload: every traced pass reports the same
// measurement.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	bgp "bgpsim"
	"bgpsim/internal/bgpctr"
	"bgpsim/internal/cache"
	"bgpsim/internal/core"
	"bgpsim/internal/epochmemo"
	"bgpsim/internal/experiments"
	"bgpsim/internal/journal"
	"bgpsim/internal/machine"
	"bgpsim/internal/nas"
	"bgpsim/internal/postproc"
	"bgpsim/internal/progcache"
	"bgpsim/internal/server"
	"bgpsim/internal/statehash"
	"bgpsim/internal/workload"
)

// driver sizes the direct drives: every function is timed for at least
// minDur, the journal drive makes fsyncs appends, and the large checkpoint
// store holds storeEntries entries. Only -smoke departs from fullDrives.
type driver struct {
	minDur               time.Duration
	fsyncs, storeEntries int
}

var (
	fullDrives  = driver{minDur: 100 * time.Millisecond, fsyncs: 500, storeEntries: 1000}
	smokeDrives = driver{minDur: 2 * time.Millisecond, fsyncs: 20, storeEntries: 100}
)

// perCall calls f in batches of about 5 ms until minDur has gone by and
// returns the median time of one call over the batches, in seconds.
func (d driver) perCall(f func()) float64 {
	t0 := time.Now()
	f()
	once := time.Since(t0)
	batch := 1
	if once < 5*time.Millisecond {
		batch = int(5*time.Millisecond/(once+1)) + 1
	}
	var perCall []float64
	for start := time.Now(); len(perCall) < 3 || time.Since(start) < d.minDur; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		perCall = append(perCall, time.Since(t0).Seconds()/float64(batch))
	}
	return median(perCall)
}

// runDrives measures every direct-drive metric. dir is a scratch directory
// on the filesystem bgpd's checkpoint directory lives on.
func runDrives(dir string, d driver, hplYAML string) (map[string]float64, error) {
	vals := map[string]float64{}
	us := func(name string, f func()) { vals[name] = d.perCall(f) * 1e6 }
	ms := func(name string, f func()) { vals[name] = d.perCall(f) * 1e3 }
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	quick := experiments.QuickScale()
	best := experiments.BestBuild()
	point := func(mode machine.OpMode) (bgp.RunConfig, *bgp.Result) {
		cfg := bgp.RunConfig{Benchmark: "cg", Class: quick.Class, Ranks: quick.Ranks, Mode: mode, Opts: best}
		res, err := bgp.Run(cfg)
		check(err)
		return cfg, res
	}
	vnmCfg, vnmRes := point(machine.VNM) // 4 dumps
	_, smpRes := point(machine.SMP1)     // 16 dumps
	smallCfg := bgp.RunConfig{Benchmark: "ep", Class: nas.ClassS, Ranks: 4, Mode: machine.VNM, Opts: best}
	smallRes, err := bgp.Run(smallCfg)
	check(err)
	if failed != nil {
		return nil, failed
	}

	// bgp: checkpoint store persist at two store sizes, restore, RunKey.
	// The store is filled with one-dump results; what is timed is the
	// persist of a W/16 result, whose manifest rewrite grows with the
	// number of entries.
	store, err := bgp.OpenCheckpointStore(filepath.Join(dir, "drive-store"), false)
	if err != nil {
		return nil, err
	}
	fillTo := func(n int) {
		for i := store.Len(); i < n; i++ {
			check(store.Persist(fmt.Sprintf("fill-%04d", i), smallCfg, smallRes))
		}
	}
	persists := 0
	persist := func() {
		persists++
		check(store.Persist(fmt.Sprintf("drive-%04d", persists), vnmCfg, vnmRes))
	}
	fillTo(10)
	ms("bgp.persist_ms_at_10", persist)
	fillTo(d.storeEntries)
	ms("bgp.persist_ms_at_1000", persist)
	key := bgp.RunKey(0, vnmCfg)
	check(store.Persist(key, vnmCfg, vnmRes))
	us("bgp.restore_us", func() {
		if store.Restore(key, vnmCfg) == nil {
			check(fmt.Errorf("checkpoint restore missed"))
		}
	})
	us("bgp.runkey_us", func() { bgp.RunKey(0, vnmCfg) })

	// nas, progcache: build the eight kernels without and with a warm
	// compile cache; the metric is the mean over the kernels.
	warm := progcache.New(0)
	buildAll := func(pc *progcache.Cache) func() {
		return func() {
			for _, name := range experiments.SuiteNames() {
				b, err := nas.ByName(name)
				check(err)
				_, err = b.Build(nas.Config{Class: quick.Class, Ranks: b.RanksFor(quick.Ranks), Opts: best, Cache: pc})
				check(err)
			}
		}
	}
	kernels := float64(len(experiments.SuiteNames()))
	us("nas.build_nocache_us", buildAll(nil))
	vals["nas.build_nocache_us"] /= kernels
	buildAll(warm)()
	us("progcache.hit_us", buildAll(warm))
	vals["progcache.hit_us"] /= kernels

	// workload: decode and build the HPL proxy.
	hpl, err := workload.DecodeSpecBytes([]byte(hplYAML))
	if err != nil {
		return nil, err
	}
	us("workload.decode_us", func() {
		_, err := workload.DecodeSpecBytes([]byte(hplYAML))
		check(err)
	})
	us("workload.build_us", func() {
		_, err := workload.Build(hpl, nas.Config{Class: quick.Class, Ranks: quick.Ranks, Opts: best})
		check(err)
	})

	// machine: boot the two partition shapes the quick-scale figures use.
	ms("machine.new_ms_vnm4", func() { machine.New(4, machine.VNM, machine.DefaultParams()) })
	ms("machine.new_ms_smp16", func() { machine.New(16, machine.SMP1, machine.DefaultParams()) })

	// cache: L1-geometry accesses that all hit (a resident quarter of the
	// cache) and that all miss (a stream far larger than the cache).
	l1 := cache.New(core.DefaultParams().L1)
	line, size := uint64(l1.LineBytes()), uint64(l1.SizeBytes())
	const accesses = 1 << 16
	var addr uint64
	sweepCache := func(span uint64) func() {
		return func() {
			for i := 0; i < accesses; i++ {
				l1.Access(addr, false)
				addr = (addr + line) % span
			}
		}
	}
	sweepCache(size / 4)()
	vals["cache.access_hit_ns"] = d.perCall(sweepCache(size/4)) * 1e9 / accesses
	vals["cache.access_miss_ns"] = d.perCall(sweepCache(size*64)) * 1e9 / accesses

	// epochmemo, statehash: put and get entries of a representative size,
	// and hash 1 MiB of state.
	memo := epochmemo.New(0)
	rng := rand.New(rand.NewSource(1))
	var keys []epochmemo.Key
	payload := make([]byte, 64<<10)
	us("epochmemo.put_us", func() {
		var k epochmemo.Key
		rng.Read(k[:])
		keys = append(keys, k)
		memo.Put(k, payload, int64(len(payload)))
	})
	next := 0
	us("epochmemo.get_us", func() {
		if memo.Get(keys[next%len(keys)]) == nil {
			check(fmt.Errorf("epoch memo get missed"))
		}
		next++
	})
	words := make([]uint64, 1<<17)
	for i := range words {
		words[i] = rng.Uint64()
	}
	vals["statehash.mb_per_s"] = 1 / d.perCall(func() { statehash.Sum128(words) })

	// postproc, bgpctr: mine a 16-dump result, encode and decode one dump.
	us("postproc.analyze_us", func() {
		a, err := postproc.Analyze(smpRes.Dumps)
		check(err)
		_, err = postproc.Compute(a, bgpctr.WholeAppSet, smpRes.Label)
		check(err)
	})
	var blob bytes.Buffer
	us("bgpctr.encode_us", func() {
		blob.Reset()
		check(smpRes.Dumps[0].Encode(&blob))
	})
	us("bgpctr.read_us", func() {
		_, err := bgpctr.ReadDump(bytes.NewReader(blob.Bytes()))
		check(err)
	})

	// journal: fsynced appends of a submit-sized record.
	jnl, _, err := journal.Open(filepath.Join(dir, "drive.wal"))
	if err != nil {
		return nil, err
	}
	job := runConfig{Class: "S", Ranks: 4, Mode: "vnm", Opts: best.String()}
	job.Kernel = "cg"
	nasJob := jobBody(job, 0, hplYAML)
	job.Kernel = "hpl"
	hplJob := jobBody(job, 0, hplYAML)
	rec := journal.Record{Kind: journal.KindSubmit, Job: "job-0123456789abcdef", Tenant: "tenant-0",
		Spec: nasJob, CreatedUnix: time.Now().Unix()}
	appends := make([]float64, d.fsyncs)
	for i := range appends {
		t0 := time.Now()
		check(jnl.Append(rec))
		appends[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	check(jnl.Close())
	vals["journal.append_p50_us"] = quantile(appends, 0.5)
	vals["journal.append_p90_us"] = quantile(appends, 0.9)

	// server: decode a benchmark job and a by-value HPL job; the metric is
	// the mean of the two.
	us("server.decode_us", func() {
		for _, job := range [][]byte{nasJob, hplJob} {
			_, _, err := server.DecodeJobSpec(bytes.NewReader(job))
			check(err)
		}
	})
	vals["server.decode_us"] /= 2

	check(os.RemoveAll(filepath.Join(dir, "drive-store")))
	return vals, failed
}

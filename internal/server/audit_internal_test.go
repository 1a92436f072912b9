package server

// White-box audit tests: the comparator must actually detect divergence
// (the e2e test can only show agreement on a healthy store), and the
// sampling decision must be a deterministic pure function of the RunKey.

import (
	"fmt"
	"testing"

	bgp "bgpsim"
)

// TestAuditOneDetectsMismatch feeds auditOne a served result whose counter
// bytes were tampered after persistence and requires server.audit.mismatch
// to fire; the untampered twin must count as ok.
func TestAuditOneDetectsMismatch(t *testing.T) {
	s, err := New(Config{CheckpointDir: t.TempDir(), AuditFraction: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	cfg, err := RunSpec{Benchmark: "ep", Class: "S", Ranks: 2, Mode: "vnm"}.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	key := bgp.RunKey(0, cfg)
	good, err := bgp.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s.auditOne(auditTask{key: key, cfg: cfg, want: good})
	if ok, mis := s.auditOK.Value(), s.auditMismatch.Value(); ok != 1 || mis != 0 {
		t.Fatalf("healthy audit counted ok=%d mismatch=%d, want 1/0", ok, mis)
	}

	// A second, independent simulation of the same configuration, with one
	// counter flipped — the result a silently corrupted store would serve.
	bad, err := bgp.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	bad.Dumps[0].Sets[0].Counts[3]++
	s.auditOne(auditTask{key: key, cfg: cfg, want: bad})
	if ok, mis := s.auditOK.Value(), s.auditMismatch.Value(); ok != 1 || mis != 1 {
		t.Fatalf("tampered audit counted ok=%d mismatch=%d, want 1/1", ok, mis)
	}
}

// TestAuditSampledDeterministic pins the sampling contract: fractions 0
// and 1 are off and always-on, and a mid fraction gives every key a stable
// verdict with both verdicts represented across keys.
func TestAuditSampledDeterministic(t *testing.T) {
	s := &Server{}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("ep.S.%d.vnm", i)
	}
	s.cfg.AuditFraction = 0
	for _, k := range keys {
		if s.auditSampled(k) {
			t.Fatalf("fraction 0 sampled %q", k)
		}
	}
	s.cfg.AuditFraction = 1
	for _, k := range keys {
		if !s.auditSampled(k) {
			t.Fatalf("fraction 1 skipped %q", k)
		}
	}
	s.cfg.AuditFraction = 0.5
	sampled := 0
	for _, k := range keys {
		first := s.auditSampled(k)
		for i := 0; i < 3; i++ {
			if s.auditSampled(k) != first {
				t.Fatalf("sampling of %q is not deterministic", k)
			}
		}
		if first {
			sampled++
		}
	}
	if sampled == 0 || sampled == len(keys) {
		t.Fatalf("fraction 0.5 sampled %d of %d keys; want a nontrivial split", sampled, len(keys))
	}
}

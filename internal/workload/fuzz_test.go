package workload

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeWorkloadSpec pins the decoder's failure mode: malformed input of
// any shape must come back as an error, never a panic, and anything that
// does decode must re-validate, cost no more than MaxSpecTrips, and
// fingerprint cleanly. Every source of the malformed-spec table seeds it, so
// the walker's error paths are where the mutations start. It mirrors the
// server's FuzzDecodeJobSpec for the JSON job spec.
func FuzzDecodeWorkloadSpec(f *testing.F) {
	seeds, err := filepath.Glob("testdata/*.yaml")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	hpl, err := os.ReadFile("../../specs/hpl.yaml")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hpl)
	f.Add([]byte(goodSpec))
	for _, tc := range malformedSpecs {
		f.Add([]byte(tc.src))
	}
	f.Add([]byte("version: 1\nname: x\n"))
	f.Add([]byte("a: {b: [1, 2], c: \"d\"}\n"))
	f.Add([]byte("\t\n- \n:\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpecBytes(data)
		if err != nil {
			return
		}
		// A spec that decodes must hold the decoder's own invariants.
		if err := s.Validate(); err != nil {
			t.Fatalf("decoded spec fails Validate: %v", err)
		}
		if c := s.cost(); c > float64(MaxSpecTrips) {
			t.Fatalf("decoded spec costs %.0f trips, above the %d bound", c, MaxSpecTrips)
		}
		if fp := s.Fingerprint(); len(fp) != 64 {
			t.Fatalf("fingerprint %q is not a sha256 hex digest", fp)
		}
	})
}

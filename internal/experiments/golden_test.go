package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenReportsByteIdentical pins the full evaluation stack to the
// report bytes of every registered experiment at seed 1 and 120 steps:
// Table 2 and Figures 4–9 — every simulated count, error statistic and MPC
// cost in them — must reproduce the recorded goldens exactly, byte for byte.
//
// If this test fails after an intentional semantic change to the protocols
// or cost model, regenerate the goldens with `make goldens` and say so in
// the commit; an unintentional failure means the engine or the harness
// changed observable behavior.
func TestGoldenReportsByteIdentical(t *testing.T) {
	p := Params{Steps: 120, Seed: 1, Workers: 1}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden_"+name+"_seed1_steps120.txt")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			var got bytes.Buffer
			if err := Registry[name](context.Background(), p, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s output diverged from %s (after an intended change, `make goldens` regenerates it)\n--- got ---\n%s--- want ---\n%s", name, path, got.String(), want)
			}
		})
	}
}

package opt

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/update.golden from the current output")

// goldenParams is the parameter set of TestUpdateGolden: a decayed weight,
// a NoDecay bias holding +0, −0 and both signs, and an all-zero weight
// (LARS's ‖w‖ = 0 fallback).
func goldenParams() []*nn.Param {
	w := nn.NewParam("w", 48)
	w.W.FillNormal(rng.New(3), 0, 1)
	b := nn.NewParam("b", 8)
	b.NoDecay = true
	copy(b.W.Data, []float32{0, float32(math.Copysign(0, -1)), 0.5, -0.5, 1, -1, 0.25, 0})
	zero := nn.NewParam("zero", 16)
	return []*nn.Param{w, b, zero}
}

// goldenGrads writes step k's gradients: noise plus a pull towards the
// weights, with −0 and +0 planted on a rotating set of coordinates. The
// zero weight sees only −0 gradients for two steps (‖w‖ = ‖g‖ = 0), then
// noise while its weights are still all zero.
func goldenGrads(params []*nn.Param, r *rng.Rand, k int) {
	negZero := float32(math.Copysign(0, -1))
	for pi, p := range params {
		for j := range p.G.Data {
			g := 0.1*r.NormFloat32() + 0.01*p.W.Data[j]
			switch {
			case pi == 2 && k < 2, (j+k)%3 == 0:
				g = negZero
			case (j+k)%7 == 0:
				g = 0
			}
			p.G.Data[j] = g
		}
	}
}

func fnvFloats(xs []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestUpdateGolden pins every bit SGD and LARS write: per step, the FNV-64a
// of each parameter's weights and velocity (and LARS's trust ratios) for
// m ∈ {0, 0.9}, λ ∈ {0, 5e-4} and learning rates from 1e-6 to 3. The file
// was generated before SGD and LARS shared one momentum loop; an intended
// change to the update regenerates it with -update.
func TestUpdateGolden(t *testing.T) {
	const path = "testdata/update.golden"
	var out bytes.Buffer
	for _, rule := range []string{"sgd", "lars"} {
		for _, m := range []float64{0, 0.9} {
			for _, wd := range []float64{0, 5e-4} {
				for _, lr := range []float64{1e-6, 0.1, 3} {
					params := goldenParams()
					var step func(float64)
					var velocity func(i int) []float32
					ratios := func() string { return "" }
					if rule == "sgd" {
						s := NewSGD(params, SGDConfig{Momentum: m, WeightDecay: wd})
						step, velocity = s.Step, func(i int) []float32 { return s.velocity[i].Data }
					} else {
						l := NewLARS(params, LARSConfig{Momentum: m, WeightDecay: wd, Trust: 0.001})
						step, velocity = l.Step, func(i int) []float32 { return l.velocity[i].Data }
						ratios = func() string {
							var s strings.Builder
							for _, x := range l.TrustRatios() {
								fmt.Fprintf(&s, " %016x", math.Float64bits(x))
							}
							return " ratios" + s.String()
						}
					}
					r := rng.New(11)
					for k := 0; k < 12; k++ {
						goldenGrads(params, r, k)
						step(lr)
						fmt.Fprintf(&out, "%s m=%g wd=%g lr=%g step %2d:", rule, m, wd, lr, k)
						for i, p := range params {
							fmt.Fprintf(&out, " %s=%016x/%016x", p.Name, fnvFloats(p.W.Data), fnvFloats(velocity(i)))
						}
						fmt.Fprintf(&out, "%s\n", ratios())
					}
				}
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("golden has %d lines, run printed %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d differs from golden\n got: %s\nwant: %s", i+1, got[i], wantLines[i])
		}
	}
}

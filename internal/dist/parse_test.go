package dist

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestParseAlgorithmInvertsString(t *testing.T) {
	for _, a := range []Algorithm{Central, Tree, Ring} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	for _, bad := range []string{"", "Ring", "star", "Algorithm(7)"} {
		if _, err := ParseAlgorithm(bad); err == nil || !strings.Contains(err.Error(), "central | tree | ring") {
			t.Errorf("ParseAlgorithm(%q): got %v, want an error listing the three names", bad, err)
		}
	}
}

// TestFaultRatesValidated: a drop or stall rate is a probability. NaN or a
// value outside [0, 1] is refused by name; the bounds themselves are fine.
func TestFaultRatesValidated(t *testing.T) {
	for _, tc := range []struct {
		plan FaultPlan
		want string
	}{
		{FaultPlan{DropRate: 1.5}, "FaultPlan.DropRate = 1.5"},
		{FaultPlan{DropRate: math.NaN()}, "FaultPlan.DropRate = NaN"},
		{FaultPlan{DropRate: -0.1}, "FaultPlan.DropRate = -0.1"},
		{FaultPlan{StallRate: -1}, "FaultPlan.StallRate = -1"},
		{FaultPlan{StallRate: math.Inf(1)}, "FaultPlan.StallRate = +Inf"},
		{FaultPlan{DropRate: 1, StallRate: 0}, ""},
		{FaultPlan{DropRate: 0, StallRate: 1}, ""},
	} {
		err := Config{Faults: &tc.plan}.Validate(2)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%+v: Validate = %v, want %q", tc.plan, err, tc.want)
		}
	}
}

// TestNegativeSizesRefused: a negative bucket or chunk size is refused by
// field name (BucketRanges would otherwise reduce it as one bucket).
func TestNegativeSizesRefused(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{BucketElems: -5}, "Config.BucketElems = -5"},
		{Config{MicroBatch: -1}, "Config.MicroBatch = -1"},
	} {
		if err := tc.cfg.Validate(2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Validate = %v, want %q", tc.cfg, err, tc.want)
		}
	}
}

// TestParseReductionInvertsString: each reduction parses back from its
// String form and from its flag spelling; anything else is one error
// listing the flag names.
func TestParseReductionInvertsString(t *testing.T) {
	for _, tc := range []struct {
		r    Reduction
		flag string
	}{{CanonicalF64, "canonical"}, {PairwiseF32, "pairwise"}} {
		for _, name := range []string{tc.r.String(), tc.flag} {
			if got, err := ParseReduction(name); err != nil || got != tc.r {
				t.Errorf("ParseReduction(%q) = %v, %v; want %v", name, got, err, tc.r)
			}
		}
	}
	for _, bad := range []string{"", "kahan", "Canonical", "Reduction(7)"} {
		if _, err := ParseReduction(bad); err == nil || !strings.Contains(err.Error(), "canonical | pairwise") {
			t.Errorf("ParseReduction(%q): got %v, want an error listing the names", bad, err)
		}
	}
}

// TestParseCodecInvertsName: every codec's Name parses back to a codec of
// that name, "" is the raw wire, and anything else is one error listing the
// names.
func TestParseCodecInvertsName(t *testing.T) {
	for _, c := range []Codec{FP16Codec{}, NewOneBitCodec()} {
		got, err := ParseCodec(c.Name())
		if err != nil || got == nil || got.Name() != c.Name() {
			t.Errorf("ParseCodec(%q) = %v, %v; want the %s codec", c.Name(), got, err, c.Name())
		}
	}
	if got, err := ParseCodec(""); got != nil || err != nil {
		t.Errorf(`ParseCodec("") = %v, %v; want the raw wire (nil, nil)`, got, err)
	}
	for _, bad := range []string{"FP16", "1-bit", "raw", " fp16"} {
		if got, err := ParseCodec(bad); got != nil || err == nil || !strings.Contains(err.Error(), `"" | fp16 | 1bit`) {
			t.Errorf("ParseCodec(%q) = %v, %v; want an error listing the names", bad, got, err)
		}
	}
}

// TestParseWorkerSteps: the -fault-dead / -fault-join syntax is strict. The
// three rejected-by-name rows were accepted by the Sscanf("%d@%d") loop this
// parser replaced (trailing text ignored, a negative step passed through, a
// repeated worker silently overwritten).
func TestParseWorkerSteps(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    map[int]int64
		wantErr string // substring; "" = must parse
	}{
		{in: "", want: nil},
		{in: "3@40", want: map[int]int64{3: 40}},
		{in: "2@40,3@40", want: map[int]int64{2: 40, 3: 40}},
		{in: " 1@0 , 2@7 ", want: map[int]int64{1: 0, 2: 7}},
		{in: "0@5", want: map[int]int64{0: 5}}, // naming the master is Config.Validate's refusal
		{in: "1@2xyz", wantErr: `bad entry "1@2xyz"`},
		{in: "1@-5", wantErr: `bad entry "1@-5"`},
		{in: "1@2,1@7", wantErr: "worker 1 listed twice"},
		{in: "-1@2", wantErr: "bad entry"},
		{in: "+1@2", wantErr: "bad entry"},
		{in: "1", wantErr: "bad entry"},
		{in: "1@", wantErr: "bad entry"},
		{in: "@2", wantErr: "bad entry"},
		{in: "1@2@3", wantErr: "bad entry"},
		{in: "1@2,", wantErr: "bad entry"},
		{in: ",", wantErr: "bad entry"},
		{in: "1 @2", wantErr: "bad entry"},
		{in: "0x1@2", wantErr: "bad entry"},
		{in: "99999999999@1", wantErr: "bad entry"},
		{in: "1@99999999999999999999", wantErr: "bad entry"},
	} {
		got, err := ParseWorkerSteps(tc.in)
		switch {
		case tc.wantErr == "" && (err != nil || !reflect.DeepEqual(got, tc.want)):
			t.Errorf("ParseWorkerSteps(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		case tc.wantErr != "" && (err == nil || got != nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("ParseWorkerSteps(%q) = %v, %v; want an error containing %q", tc.in, got, err, tc.wantErr)
		}
	}
}

// renderWorkerSteps is the canonical spelling of a plan: pairs in worker
// order, no spaces.
func renderWorkerSteps(plan map[int]int64) string {
	var workers []int
	for w := range plan {
		workers = append(workers, w)
	}
	slices.Sort(workers)
	pairs := make([]string, len(workers))
	for i, w := range workers {
		pairs[i] = fmt.Sprintf("%d@%d", w, plan[w])
	}
	return strings.Join(pairs, ",")
}

// FuzzParseWorkerSteps: any flag value either parses or is an error — never
// a panic, never both — every parsed worker and step is non-negative, and a
// parsed plan survives rendering in canonical form and reparsing. The
// committed corpus under testdata/fuzz holds the grammar's edges; CI replays
// it on every push.
func FuzzParseWorkerSteps(f *testing.F) {
	for _, s := range []string{
		"3@40", "2@40,3@40", " 1@0 , 2@7 ", // valid lists
		"1@2xyz", "1@-5", "1@2,1@7", // what Sscanf let through
		"", ",", "@", "1@", // empty pieces
		"99999999999999999999@1", "1@99999999999999999999", "2147483648@0", // overflowing integers
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := ParseWorkerSteps(s)
		if err != nil {
			if plan != nil {
				t.Fatalf("ParseWorkerSteps(%q) returned both a plan and error %v", s, err)
			}
			return
		}
		for w, step := range plan {
			if w < 0 || step < 0 {
				t.Fatalf("ParseWorkerSteps(%q) accepted %d@%d", s, w, step)
			}
		}
		rendered := renderWorkerSteps(plan)
		again, err := ParseWorkerSteps(rendered)
		if err != nil || !reflect.DeepEqual(plan, again) {
			t.Fatalf("round trip %q -> %q -> %v, %v; want %v", s, rendered, again, err, plan)
		}
	})
}

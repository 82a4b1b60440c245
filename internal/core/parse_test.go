package core

import (
	"strings"
	"testing"
)

// TestParseMethodInvertsString: each recipe parses back from its String form
// and from its flag spelling; anything else is one error listing the flag
// names.
func TestParseMethodInvertsString(t *testing.T) {
	for _, tc := range []struct {
		m    Method
		flag string
	}{{BaselineSGD, "sgd"}, {LinearScalingWarmup, "linear"}, {LARSWarmup, "lars"}} {
		for _, name := range []string{tc.m.String(), tc.flag} {
			if got, err := ParseMethod(name); err != nil || got != tc.m {
				t.Errorf("ParseMethod(%q) = %v, %v; want %v", name, got, err, tc.m)
			}
		}
	}
	for _, bad := range []string{"", "adam", "LARS", "Method(7)"} {
		if _, err := ParseMethod(bad); err == nil || !strings.Contains(err.Error(), "sgd | linear | lars") {
			t.Errorf("ParseMethod(%q): got %v, want an error listing the names", bad, err)
		}
	}
}

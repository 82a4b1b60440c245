package data

import (
	"fmt"
	"strings"
	"testing"
)

// TestSynthConfigValidate: every field GenerateSynth cannot render from is
// named in the error, and GenerateSynth panics with that same error.
func TestSynthConfigValidate(t *testing.T) {
	if err := DefaultSynthConfig().Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*SynthConfig)
		want string
	}{
		{"no classes", func(c *SynthConfig) { c.Classes = 0 }, "Classes = 0"},
		{"one class", func(c *SynthConfig) { c.Classes = 1 }, "Classes = 1"},
		{"empty train set", func(c *SynthConfig) { c.TrainSize = 0 }, "TrainSize = 0"},
		{"negative test set", func(c *SynthConfig) { c.TestSize = -1 }, "TestSize = -1"},
		{"no channels", func(c *SynthConfig) { c.C = 0 }, "image 0x24x24"},
		{"zero-size image", func(c *SynthConfig) { c.H, c.W = 0, 0 }, "image 3x0x0"},
	} {
		cfg := DefaultSynthConfig()
		tc.edit(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
			continue
		}
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != err.Error() {
					t.Errorf("%s: GenerateSynth panicked with %v, want %v", tc.name, r, err)
				}
			}()
			GenerateSynth(cfg)
		}()
	}
}

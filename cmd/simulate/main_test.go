package main

import (
	"strings"
	"testing"
)

// TestSizesCheck: every numeric flag the cluster model would panic on is
// rejected up front with a message naming the flag.
func TestSizesCheck(t *testing.T) {
	ok := sizes{nodes: 2048, batch: 32768, epochs: 90, dataset: 1280000, interval: 60}
	if err := ok.check(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	evicting := ok
	evicting.nodes, evicting.evict = 4, "0.1, 0.2,0.3"
	if err := evicting.check(); err != nil {
		t.Fatalf("three evictions from four devices rejected: %v", err)
	}
	pod := ok
	pod.nodes, pod.perNode, pod.autoscale = 16, 8, true
	if err := pod.check(); err != nil {
		t.Fatalf("hierarchical autoscale within the fleet rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*sizes)
		want string
	}{
		{"-batch 0", func(s *sizes) { s.batch = 0 }, "-batch"},
		{"-epochs 0", func(s *sizes) { s.epochs = 0 }, "-epochs"},
		{"-per-node 8 -nodes 16 -autoscale 1.0x3 -scale-max 24",
			func(s *sizes) { *s = pod; s.scaleMax = 24 }, "-scale-max"},
		{"-nodes 0", func(s *sizes) { s.nodes = 0 }, "-nodes"},
		{"-dataset -1", func(s *sizes) { s.dataset = -1 }, "-dataset"},
		{"-per-node 3", func(s *sizes) { s.perNode = 3 }, "-per-node"},
		{"-sweep -evict", func(s *sizes) { s.sweep, s.evict = true, "0.5" }, "-evict"},
		{"-nodes 4 -evict 0.1,0.2,0.3,0.4", func(s *sizes) { s.nodes, s.evict = 4, "0.1,0.2,0.3,0.4" }, "-evict loses 4"},
		{"-evict 0.5,abc", func(s *sizes) { s.evict = "0.5,abc" }, "-evict fraction"},
		{"-evict 1.5", func(s *sizes) { s.evict = "1.5" }, "-evict fraction"},
		{"-autoscale -interval 0", func(s *sizes) { s.autoscale, s.interval = true, 0 }, "-interval"},
	} {
		s := ok
		tc.edit(&s)
		err := s.check()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
}

package lib

import "testing"

func TestProbe(t *testing.T) {
	if Run() != Probe() {
		t.Fatal("probe disagrees with Run")
	}
}

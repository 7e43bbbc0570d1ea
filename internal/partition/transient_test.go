package partition

import (
	"errors"
	"testing"

	"repro/internal/exec"
)

func TestTransientFlag(t *testing.T) {
	f := New(frame(t, 20, 2), Rows, 4)
	if f.Transient() {
		t.Error("frames are not transient by default")
	}
	if got := f.MarkTransient(); got != f || !f.Transient() {
		t.Error("MarkTransient should flag and return the frame")
	}
}

func TestReleaseBandDropsBlockValues(t *testing.T) {
	f := New(frame(t, 20, 2), Rows, 4).MarkTransient()
	if err := f.Resolve(); err != nil {
		t.Fatal(err)
	}
	if f.Band(1) == nil {
		t.Fatal("band 1 should hold a frame before release")
	}
	f.ReleaseBand(1)
	if v, err := f.BandFuture(1).Wait(); v != nil || err != nil {
		t.Errorf("released band still holds val=%v err=%v", v, err)
	}
	// Other bands stay resident.
	if f.Band(0) == nil || f.Band(2) == nil {
		t.Error("ReleaseBand must only drop the named band")
	}
}

func TestReleaseBandKeepsPendingAndErrors(t *testing.T) {
	pending, resolve := exec.NewPromise()
	failed := exec.Failed(errors.New("boom"))
	f := Deferred([]*exec.Future{pending, failed})
	f.MarkTransient()
	f.ReleaseBand(0) // pending: no-op
	f.ReleaseBand(1) // failed: error retained
	resolve("x", nil)
	if v, _ := f.BandFuture(0).Wait(); v != "x" {
		t.Errorf("pending band lost its value: %v", v)
	}
	if _, err := f.BandFuture(1).Wait(); err == nil {
		t.Error("released band lost its error")
	}
}

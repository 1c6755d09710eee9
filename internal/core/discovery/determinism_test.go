package discovery

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"iotmap/internal/censys"
	"iotmap/internal/core/patterns"
	"iotmap/internal/world"
)

// TestRunDeterministic: the parallel day pipeline must produce identical
// Result maps across runs — worker scheduling cannot leak into output.
func TestRunDeterministic(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 33, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{
		Patterns: patterns.All(),
		Censys:   w.BuildCensys(),
		PDNS:     w.BuildDNSDB(),
		Zones:    unrelatedStores(w),
		Views:    world.VantagePointViews,
		Days:     w.Days,
		Seed:     33,
	}
	first, err := Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		again, err := Run(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d: parallel discovery produced a different result map", i+2)
		}
	}
	// Sanity: the pipeline actually discovered something.
	total := 0
	for _, r := range first {
		total += len(r.Addrs())
	}
	if total == 0 {
		t.Fatal("discovery found nothing; determinism test is vacuous")
	}
}

// TestRunErrorNotMaskedByPoolCancel: a day without a scan snapshot fails
// the run, and the caller sees that error, not a context.Canceled.
func TestRunErrorNotMaskedByPoolCancel(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 33, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{
		Patterns: patterns.All(),
		Censys:   censys.NewService(), // no snapshots: every day fails
		Days:     w.Days,
		Seed:     33,
	}
	_, err = Run(context.Background(), in)
	if err == nil {
		t.Fatal("expected error for missing snapshots")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("real error masked by pool cancellation: %v", err)
	}
	if !strings.Contains(err.Error(), "no snapshot") {
		t.Fatalf("unexpected error: %v", err)
	}
}

package scenario

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"iotmap/internal/faultwire"
	"iotmap/internal/outage"
	"iotmap/internal/world"
)

var (
	testWorldOnce sync.Once
	testWorld     *world.World
	testWorldErr  error
)

// studyWorld is a small eight-day world the presets fit.
func studyWorld(t *testing.T) *world.World {
	t.Helper()
	testWorldOnce.Do(func() {
		testWorld, testWorldErr = world.Build(world.Config{Seed: 3, Scale: 0.02, Days: world.StudyDays()})
	})
	if testWorldErr != nil {
		t.Fatal(testWorldErr)
	}
	return testWorld
}

// TestValidateRejections: every malformed step is refused at Compile,
// and the error names the step.
func TestValidateRejections(t *testing.T) {
	w := studyWorld(t)
	hours := len(w.Days) * 24
	day := func(d int) *outage.Scenario {
		sc := outage.AWSUSEast1(d)
		return &sc
	}
	for _, tc := range []struct {
		step Step
		want string
	}{
		{Step{}, "is empty"},
		{Step{Hijack: &Hijack{Provider: "nosuch"}}, `unknown provider "nosuch"`},
		{Step{Migration: &Migration{Provider: "nosuch"}}, `unknown provider "nosuch"`},
		{Step{Hijack: &Hijack{Provider: "amazon", FromHour: 10, ToHour: 10}}, "hijack window [10,10) is empty"},
		{Step{Hijack: &Hijack{Provider: "amazon", FromHour: -1}}, "hijack FromHour -1 outside study"},
		{Step{Hijack: &Hijack{Provider: "amazon", FromHour: hours}}, "outside study"},
		{Step{Outage: day(-1)}, "outage day -1 outside study"},
		{Step{Outage: day(len(w.Days))}, "outage day 8 outside study"},
		{Step{Wire: []faultwire.Rule{{FromHour: -1}}}, "wire rule hours [-1,0) outside study"},
		{Step{Wire: []faultwire.Rule{{FromHour: hours}}}, "outside study"},
		{Step{Wire: []faultwire.Rule{{}, {FromHour: 1, ToHour: hours + 1}}}, "outside study"},
		{Step{Migration: &Migration{Provider: "bosch", AtHour: hours}}, "cutover hour 192 outside study"},
		{Step{Migration: &Migration{Provider: "bosch", AtHour: -1}}, "cutover hour -1 outside study"},
	} {
		tc.step.Name = "bad"
		_, err := Suite{Name: "s", Steps: []Step{tc.step}}.Compile(w)
		if err == nil {
			t.Errorf("%+v: compiled, want %q", tc.step, tc.want)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, `step "bad"`) || !strings.Contains(msg, tc.want) {
			t.Errorf("%+v: err = %q, want the step named and %q", tc.step, msg, tc.want)
		}
	}
}

// TestCompileShapes: no steps compile to nothing, one step to one
// scenario, and n > 1 steps to n per-step scenarios plus the cumulative
// one, last.
func TestCompileShapes(t *testing.T) {
	w := studyWorld(t)
	mig := Step{Migration: &Migration{Provider: "bosch", ToASN: MigrationTargetASN, AtHour: 12}}
	wire := Step{Name: "wire", Wire: []faultwire.Rule{killFeed("isp-b", 30)}}
	for _, tc := range []struct {
		steps []Step
		want  []string
	}{
		{nil, nil},
		{[]Step{mig}, []string{"s/step0"}},
		{[]Step{mig, wire, presetHijack()}, []string{"s/step0", "s/wire", "s/hijack-t1", "s/cumulative"}},
	} {
		cs, err := Suite{Name: "s", Steps: tc.steps}.Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, c := range cs {
			names = append(names, c.Name)
		}
		if !reflect.DeepEqual(names, tc.want) {
			t.Fatalf("%d steps compiled to %v, want %v", len(tc.steps), names, tc.want)
		}
	}
}

// TestFaultSeeds: a scenario's fault seed is a pure function of the
// suite and its label: stable across compiles, distinct between the
// scenarios of one suite, and absent where no step touches the wire.
func TestFaultSeeds(t *testing.T) {
	w := studyWorld(t)
	seeds := func() []int64 {
		cs, err := Presets(5)[PresetOutageWireChaos].Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		if cs[0].Faults != nil {
			t.Fatalf("%s: outage-only step compiled a fault schedule", cs[0].Name)
		}
		var out []int64
		for _, c := range cs[1:] {
			out = append(out, c.Faults.Seed)
		}
		return out
	}
	a, b := seeds(), seeds()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault seeds changed between compiles: %v vs %v", a, b)
	}
	if len(a) != 2 || a[0] == a[1] {
		t.Fatalf("wire-chaos and cumulative share a fault seed: %v", a)
	}
}

// TestOutageFeedLossCompile pins outage-feedloss's wire plane: one kill
// rule for isp-b's feeds one hour into the outage, under the seeds the
// preset has always derived.
func TestOutageFeedLossCompile(t *testing.T) {
	w := studyWorld(t)
	want := []faultwire.Rule{{Stream: -1, Vantage: "isp-b", FromHour: 112, Faults: faultwire.Faults{Kill: true}}}
	for seed, faultSeed := range map[int64]int64{1: -9006590107963381834, 5: -7713787874236752742} {
		cs, err := Presets(seed)[PresetOutageFeedLoss].Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs) != 1 || cs[0].Faults == nil || cs[0].ModifierFor == nil {
			t.Fatalf("seed %d: compiled %+v", seed, cs)
		}
		if got := cs[0].Faults; got.Seed != faultSeed || !reflect.DeepEqual(got.Rules, want) {
			t.Fatalf("seed %d: faults = seed %d %+v, want seed %d %+v", seed, got.Seed, got.Rules, faultSeed, want)
		}
	}
}

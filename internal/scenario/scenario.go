// Package scenario is the declarative disruption-suite engine: it
// composes the repo's disruption stack — internal/bgpstream events,
// internal/outage blast radii, internal/faultwire feed chaos — into
// named, seeded, timed federation-wide what-ifs. A Suite is a list of
// Steps scheduled on the study-hour clock; Compile lowers each step (and
// the whole suite cumulatively) into the primitives the federated
// pipeline already understands: per-vantage flow modifiers for the
// traffic plane and a faultwire schedule for the wire plane. Events and
// OriginAt give the Section 6.2 impact check its bgpstream event list
// and time-aware origin resolution. Every draw derives from the suite
// seed via simrand, so a rerun of any suite is byte-identical.
//
// A step's four members mirror the paper's Section 6 questions scaled
// to a federation (Saidi et al., IMC '22) and Tagliaro et al. 2024's
// framing of provider infrastructure — not addresses — as the unit
// that fails:
//
//   - Hijack: a prefix hijack of one provider's announcements,
//     blackholing or degrading its traffic at a configurable subset of
//     vantages (route visibility is vantage-dependent).
//   - Outage: an outage.Scenario, visible from every vantage.
//   - Migration: a provider's fleet moves between ASes at a cutover
//     hour. Addresses do not change, so Federation.Coverage() must
//     report the infrastructure identically before and after; only the
//     time-aware AS origin (and any transient cutover blip) differs.
//   - Wire: faultwire rules for feeds corrupting, stalling or dying on
//     the way to the collector (the collector's resync and
//     degraded-vantage machinery under real load).
package scenario

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"iotmap/internal/asdb"
	"iotmap/internal/bgpstream"
	"iotmap/internal/faultwire"
	"iotmap/internal/isp"
	"iotmap/internal/outage"
	"iotmap/internal/simrand"
	"iotmap/internal/world"
)

// Suite is a named, seeded list of disruption steps on one study clock.
type Suite struct {
	// Name labels the suite in figures and reports.
	Name string
	// Seed drives every derived draw (fault schedules); zero means 1.
	Seed int64
	// Steps are the what-ifs, each compiled alone and all together.
	Steps []Step
}

// Step is one what-if. Exactly the non-empty members apply; a step may
// combine them (an outage during a hijack), though the presets keep one
// failure mode per step so the deltas read cleanly.
type Step struct {
	// Name labels the step within the suite.
	Name string
	// Hijack is a prefix hijack of one provider (nil: none).
	Hijack *Hijack
	// Outage is a backend-side outage, visible from every vantage (nil:
	// none).
	Outage *outage.Scenario
	// Migration is a provider AS migration (nil: none).
	Migration *Migration
	// Wire is the step's wire-plane fault schedule on the study-hour
	// clock (empty: clean wire). Compile gives it the scenario's derived
	// fault seed. Wire rules fault exported streams, so a suite with any
	// runs only on a wire-mode System (iotmap.TrafficModeWire).
	Wire []faultwire.Rule
}

// Hijack blackholes or degrades one provider's traffic at the vantages
// whose upstream accepted the bogus route, for a window of study hours.
type Hijack struct {
	// Provider is the victim's world ID ("amazon", "google", ...).
	Provider string
	// FromHour/ToHour bound the hijack on the study-hour clock
	// (absolute hours since the first study day; inclusive start,
	// exclusive end). ToHour 0 means end of study.
	FromHour, ToHour int
	// Vantages lists the vantage names that accepted the hijacked
	// route; empty means all of them (a globally visible hijack).
	Vantages []string
	// Blackhole drops the affected flows entirely; otherwise
	// DegradeFactor scales both directions (a hijacker that forwards
	// some traffic through a lossy detour).
	Blackhole bool
	// DegradeFactor is the surviving volume fraction when not
	// blackholing (default 0.25).
	DegradeFactor float64
}

// Migration moves one provider's backend fleet to a new AS at a
// cutover hour. Addresses are unchanged — this is a control-plane
// event. With BlipFactor zero the traffic plane is untouched and every
// figure must match the clean baseline byte for byte; a positive
// BlipFactor scales the provider's volumes during the cutover blip.
type Migration struct {
	// Provider is the migrating fleet's world ID.
	Provider string
	// ToASN is the destination AS.
	ToASN asdb.ASN
	// AtHour is the cutover study hour.
	AtHour int
	// BlipFactor, when > 0, scales the provider's volumes (both
	// directions) during the cutover blip.
	BlipFactor float64
	// BlipHours is the blip length in hours (default 1 when BlipFactor
	// is set).
	BlipHours int
}

// Compiled is one lowered scenario, ready for the federated pipeline:
// everything the traffic plane needs is in ModifierFor, everything the
// wire plane needs in Faults.
type Compiled struct {
	// Name is "<suite>/<step>" (or "<suite>/cumulative").
	Name string
	// Faults is the wire-plane fault schedule (nil: clean wire). Its
	// Start is left zero so the study anchors it to its own first day.
	Faults *faultwire.Scenario
	// ModifierFor returns the vantage's composed traffic-plane
	// modifier (nil: this vantage is untouched).
	ModifierFor func(vantage string) isp.FlowModifier
}

// validate checks one step against the world.
func (st Step) validate(w *world.World, hours int) error {
	if st.Hijack == nil && st.Outage == nil && st.Migration == nil && len(st.Wire) == 0 {
		return fmt.Errorf("scenario: step %q is empty", st.Name)
	}
	check := func(provider string) error {
		for _, srv := range w.AllServers() {
			if srv.Provider == provider {
				return nil
			}
		}
		return fmt.Errorf("scenario: step %q: unknown provider %q", st.Name, provider)
	}
	if h := st.Hijack; h != nil {
		if err := check(h.Provider); err != nil {
			return err
		}
		if h.FromHour < 0 || h.FromHour >= hours {
			return fmt.Errorf("scenario: step %q: hijack FromHour %d outside study (%d hours)", st.Name, h.FromHour, hours)
		}
		if h.ToHour != 0 && h.ToHour <= h.FromHour {
			return fmt.Errorf("scenario: step %q: hijack window [%d,%d) is empty", st.Name, h.FromHour, h.ToHour)
		}
	}
	if o := st.Outage; o != nil && (o.Day < 0 || o.Day*24 >= hours) {
		return fmt.Errorf("scenario: step %q: outage day %d outside study", st.Name, o.Day)
	}
	for _, r := range st.Wire {
		if r.FromHour < 0 || r.FromHour >= hours || r.ToHour < 0 || r.ToHour > hours {
			return fmt.Errorf("scenario: step %q: wire rule hours [%d,%d) outside study (%d hours)", st.Name, r.FromHour, r.ToHour, hours)
		}
	}
	if m := st.Migration; m != nil {
		if err := check(m.Provider); err != nil {
			return err
		}
		if m.AtHour < 0 || m.AtHour >= hours {
			return fmt.Errorf("scenario: step %q: cutover hour %d outside study (%d hours)", st.Name, m.AtHour, hours)
		}
	}
	return nil
}

// hijackPrefixes derives the victim's announced prefixes from its
// server addresses (/24 per IPv4 neighborhood, /48 per IPv6), sorted
// for deterministic event order.
func hijackPrefixes(w *world.World, provider string) []netip.Prefix {
	seen := map[netip.Prefix]struct{}{}
	for _, srv := range w.AllServers() {
		if srv.Provider != provider {
			continue
		}
		bits := 24
		if srv.Addr.Is6() {
			bits = 48
		}
		p, err := srv.Addr.Prefix(bits)
		if err != nil {
			continue
		}
		seen[p] = struct{}{}
	}
	out := make([]netip.Prefix, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// modifier builds the hijack's traffic-plane effect for one vantage.
func (h Hijack) modifier(vantage string, hours int) isp.FlowModifier {
	if len(h.Vantages) > 0 {
		hit := false
		for _, v := range h.Vantages {
			if v == vantage {
				hit = true
				break
			}
		}
		if !hit {
			return nil
		}
	}
	from, to := h.FromHour, h.ToHour
	if to == 0 {
		to = hours
	}
	factor := h.DegradeFactor
	if factor <= 0 {
		factor = 0.25
	}
	provider, blackhole := h.Provider, h.Blackhole
	return func(_ *simrand.Source, day, hour int, srv *world.Server, down, up uint64) (uint64, uint64, bool) {
		abs := day*24 + hour
		if abs < from || abs >= to || srv.Provider != provider {
			return down, up, true
		}
		if blackhole {
			return 0, 0, false
		}
		return scale(down, factor), scale(up, factor), true
	}
}

// modifier builds the migration's cutover blip (nil when pure
// control-plane).
func (m Migration) modifier() isp.FlowModifier {
	if m.BlipFactor <= 0 {
		return nil
	}
	blip := m.BlipHours
	if blip <= 0 {
		blip = 1
	}
	from, to := m.AtHour, m.AtHour+blip
	provider, factor := m.Provider, m.BlipFactor
	return func(_ *simrand.Source, day, hour int, srv *world.Server, down, up uint64) (uint64, uint64, bool) {
		abs := day*24 + hour
		if abs < from || abs >= to || srv.Provider != provider {
			return down, up, true
		}
		return scale(down, factor), scale(up, factor), true
	}
}

// scale mirrors the outage package's volume floor: surviving nonzero
// volumes never round to silence.
func scale(v uint64, f float64) uint64 {
	out := uint64(float64(v) * f)
	if v > 0 && out == 0 {
		out = 1
	}
	return out
}

// compileSteps lowers a set of steps into one Compiled scenario. The
// fault seed is derived per (suite seed, label) so distinct scenarios
// of one suite draw independent fault streams while reruns reproduce
// them exactly.
func (s Suite) compileSteps(w *world.World, name, label string, steps []Step) (Compiled, error) {
	hours := len(w.Days) * 24
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	c := Compiled{Name: name}
	// perVantage accumulates vantage-specific modifiers; global ones
	// (outages, blips) apply everywhere.
	var global []isp.FlowModifier
	var hijacks []Hijack
	var rules []faultwire.Rule
	for _, st := range steps {
		if err := st.validate(w, hours); err != nil {
			return Compiled{}, err
		}
		if h := st.Hijack; h != nil {
			hijacks = append(hijacks, *h)
		}
		if o := st.Outage; o != nil {
			global = append(global, o.Modifier())
		}
		rules = append(rules, st.Wire...)
		if m := st.Migration; m != nil {
			global = append(global, m.modifier())
		}
	}
	if len(rules) > 0 {
		c.Faults = &faultwire.Scenario{
			Seed:  simrand.SeedN(seed, "scenario/"+s.Name, hashLabel(label)),
			Rules: rules,
		}
	}
	if len(global) > 0 || len(hijacks) > 0 {
		c.ModifierFor = func(vantage string) isp.FlowModifier {
			mods := append([]isp.FlowModifier(nil), global...)
			for _, h := range hijacks {
				mods = append(mods, h.modifier(vantage, hours))
			}
			return isp.ChainModifiers(mods...)
		}
	}
	return c, nil
}

// hashLabel folds a scenario label into a seed-derivation index.
func hashLabel(label string) int64 {
	var h uint64 = 1469598103934665603 // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return int64(h)
}

// Compile lowers the suite: one Compiled per step (the per-step
// deltas), plus — when the suite has more than one step — a final
// cumulative scenario with every step active at once.
func (s Suite) Compile(w *world.World) ([]Compiled, error) {
	if len(w.Days) == 0 {
		return nil, fmt.Errorf("scenario: world has no study days")
	}
	var out []Compiled
	for i, st := range s.Steps {
		name := st.Name
		if name == "" {
			name = fmt.Sprintf("step%d", i)
		}
		c, err := s.compileSteps(w, s.Name+"/"+name, name, []Step{st})
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(s.Steps) > 1 {
		c, err := s.compileSteps(w, s.Name+"/cumulative", "cumulative", s.Steps)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// OriginAt returns the suite's time-aware AS origin resolver: the
// world's static routing table, overridden per migration once its
// cutover hour has passed. Feed it to bgpstream.CheckImpactAt so AS
// outage events attribute correctly across the cutover.
func (s Suite) OriginAt(w *world.World) bgpstream.OriginAt {
	var migs []Migration
	for _, st := range s.Steps {
		if st.Migration != nil {
			migs = append(migs, *st.Migration)
		}
	}
	return func(a netip.Addr, at time.Time) (asdb.ASN, bool) {
		if len(migs) > 0 {
			if srv, ok := w.ServerAt(a); ok {
				for _, m := range migs {
					cutover := w.Days[0].Add(time.Duration(m.AtHour) * time.Hour)
					if srv.Provider == m.Provider && !at.Before(cutover) {
						return m.ToASN, true
					}
				}
			}
		}
		return w.AS.Origin(a)
	}
}

// Events collects every step's BGP feed entries without compiling the
// traffic plane (the figures path uses it for the impact report).
func (s Suite) Events(w *world.World) []bgpstream.Event {
	var out []bgpstream.Event
	for _, st := range s.Steps {
		if h := st.Hijack; h != nil {
			at := w.Days[0].Add(time.Duration(h.FromHour) * time.Hour)
			for _, p := range hijackPrefixes(w, h.Provider) {
				out = append(out, bgpstream.WhatIfHijack(p, at))
			}
		}
	}
	return out
}

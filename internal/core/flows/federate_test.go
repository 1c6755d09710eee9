package flows

import (
	"fmt"
	"reflect"
	"testing"

	"iotmap/internal/analysis"
	"iotmap/internal/geo"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
	"iotmap/internal/world"
)

// fedVantages are three deliberately different vantage worlds over the
// shared seed-41 backend set: the reference residential ISP, a smaller
// NA-leaning one, and an IXP-style feed (aggressive sampling, no
// scanner lines).
func fedVantages(t *testing.T, w *world.World) map[string]*isp.Network {
	t.Helper()
	nets := map[string]*isp.Network{}
	for name, cfg := range map[string]isp.Config{
		"isp-a": {Seed: 41, Lines: 2000, VantageID: 0},
		"isp-b": {Seed: 43, Lines: 1200, VantageID: 1,
			ContinentBias: map[geo.Continent]float64{geo.NorthAmerica: 4, geo.Europe: 0.25}},
		"ixp": {Seed: 47, Lines: 1500, VantageID: 2, SamplingRate: 1024, ScannerFraction: -1},
	} {
		net, err := isp.NewNetwork(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		nets[name] = net
	}
	return nets
}

// fedParts simulates every vantage into fresh vantage-tagged partials
// (`shardsPer` per vantage), in deterministic vantage-name order.
func fedParts(t *testing.T, nets map[string]*isp.Network, idx *BackendIndex, w *world.World, shardsPer int) []*ShardPartial {
	t.Helper()
	var parts []*ShardPartial
	for _, name := range []string{"isp-a", "isp-b", "ixp"} {
		net := nets[name]
		agg := NewShardedAggregator(idx, w.Days, Options{
			ScannerThreshold: 100,
			SamplingRate:     net.Cfg.SamplingRate,
			FocusAlias:       "T1",
			FocusRegion:      "us-east-1",
			Vantage:          name,
		}, shardsPer)
		net.SimulateLines(agg.Shards(),
			func(shard int) func(netflow.Record) { return agg.Shard(shard).Ingest },
			func(shard int, _ *isp.Line) { agg.Shard(shard).EndLine() },
		)
		for i := 0; i < agg.Shards(); i++ {
			parts = append(parts, agg.Shard(i))
		}
	}
	return parts
}

// TestFederatedMergeOrderInvariance: FederatedMerge over any permutation
// of the vantage-tagged partials yields identical per-vantage and union
// studies — the property that makes stream arrival order irrelevant.
func TestFederatedMergeOrderInvariance(t *testing.T) {
	w, _, _ := buildStudy(t)
	nets := fedVantages(t, w)
	idx := cachedIdx

	ref := FederatedMerge(fedParts(t, nets, idx, w, testShards))
	for name, perm := range map[string]func([]*ShardPartial) []*ShardPartial{
		"reversed": func(ps []*ShardPartial) []*ShardPartial {
			out := make([]*ShardPartial, len(ps))
			for i, p := range ps {
				out[len(ps)-1-i] = p
			}
			return out
		},
		"interleaved": func(ps []*ShardPartial) []*ShardPartial {
			var out []*ShardPartial
			for off := 0; off < testShards; off++ {
				for i := off; i < len(ps); i += testShards {
					out = append(out, ps[i])
				}
			}
			return out
		},
	} {
		got := FederatedMerge(perm(fedParts(t, nets, idx, w, testShards)))
		if !reflect.DeepEqual(got.Names, ref.Names) {
			t.Fatalf("%s: vantage names differ: %v vs %v", name, got.Names, ref.Names)
		}
		for _, v := range ref.Names {
			if !reflect.DeepEqual(got.CC[v].contactSets(), ref.CC[v].contactSets()) {
				t.Errorf("%s: vantage %s contact counter differs", name, v)
			}
			if !reflect.DeepEqual(named(got.Col[v].Study()), named(ref.Col[v].Study())) {
				t.Errorf("%s: vantage %s study differs", name, v)
			}
		}
		if !reflect.DeepEqual(got.UnionCC.contactSets(), ref.UnionCC.contactSets()) {
			t.Errorf("%s: union contact counter differs", name)
		}
		if !reflect.DeepEqual(named(got.UnionCol.Study()), named(ref.UnionCol.Study())) {
			t.Errorf("%s: union study differs", name)
		}
		if !reflect.DeepEqual(got.Coverage(), ref.Coverage()) {
			t.Errorf("%s: coverage report differs", name)
		}
	}
}

// TestFederatedUnionExact: union volumes equal the sum of the
// per-vantage volumes exactly — volumes are integer-valued float64s
// (sampled bytes × rate, far below 2^53), so merged addition is exact,
// not approximately equal.
func TestFederatedUnionExact(t *testing.T) {
	w, _, _ := buildStudy(t)
	nets := fedVantages(t, w)
	fed := FederatedMerge(fedParts(t, nets, cachedIdx, w, testShards))

	union := fed.UnionCol.Study()
	perV := make([]*Study, 0, len(fed.Names))
	for _, name := range fed.Names {
		perV = append(perV, fed.Col[name].Study())
	}
	for _, alias := range union.Aliases() {
		var down, up float64
		for _, st := range perV {
			down += st.Downstream(alias).Total()
			up += st.Upstream(alias).Total()
		}
		if got := union.Downstream(alias).Total(); got != down {
			t.Errorf("%s: union downstream %v != sum %v", alias, got, down)
		}
		if got := union.Upstream(alias).Total(); got != up {
			t.Errorf("%s: union upstream %v != sum %v", alias, got, up)
		}
	}
	sumB := map[string]float64{}
	for _, st := range perV {
		for a, v := range st.BackendVolumes() {
			sumB[a.String()] += v
		}
	}
	unionB := union.BackendVolumes()
	if len(unionB) != len(sumB) {
		t.Fatalf("union touches %d backends, vantages %d", len(unionB), len(sumB))
	}
	for a, v := range unionB {
		if sumB[a.String()] != v {
			t.Errorf("backend %s: union %v != sum %v", a, v, sumB[a.String()])
		}
	}
}

// TestFederatedCoverageInvariants: the coverage report's set algebra
// must hold — |union| at least the best single vantage, exclusives
// below each vantage's total, everywhere below the weakest vantage, and
// per-alias rows partitioning the union.
func TestFederatedCoverageInvariants(t *testing.T) {
	w, _, _ := buildStudy(t)
	nets := fedVantages(t, w)
	fed := FederatedMerge(fedParts(t, nets, cachedIdx, w, testShards))
	cov := fed.Coverage()

	if len(cov.Vantages) != 3 {
		t.Fatalf("vantage rows = %d", len(cov.Vantages))
	}
	maxB, minB, sumB := 0, cov.Union+1, 0
	exclusives := 0
	for _, vc := range cov.Vantages {
		if vc.Backends > maxB {
			maxB = vc.Backends
		}
		if vc.Backends < minB {
			minB = vc.Backends
		}
		sumB += vc.Backends
		if vc.Exclusive > vc.Backends {
			t.Errorf("%s: exclusive %d > backends %d", vc.Vantage, vc.Exclusive, vc.Backends)
		}
		exclusives += vc.Exclusive
	}
	if cov.Union < maxB {
		t.Errorf("|union| = %d < best vantage %d", cov.Union, maxB)
	}
	if cov.Union > sumB {
		t.Errorf("|union| = %d exceeds the sum of vantages %d", cov.Union, sumB)
	}
	if cov.Everywhere > minB {
		t.Errorf("everywhere = %d > weakest vantage %d", cov.Everywhere, minB)
	}
	if exclusives+cov.Everywhere > cov.Union {
		t.Errorf("exclusives %d + everywhere %d exceed union %d", exclusives, cov.Everywhere, cov.Union)
	}
	aliasSum := 0
	for _, ac := range cov.Aliases {
		aliasSum += ac.Union
		if ac.Everywhere > ac.Union {
			t.Errorf("%s: everywhere %d > union %d", ac.Alias, ac.Everywhere, ac.Union)
		}
		for v, n := range ac.PerVantage {
			if n > ac.Union {
				t.Errorf("%s@%s: per-vantage %d > union %d", ac.Alias, v, n, ac.Union)
			}
		}
	}
	if aliasSum != cov.Union {
		t.Errorf("alias rows sum to %d, union is %d (aliases must partition it)", aliasSum, cov.Union)
	}
	// A genuinely multi-vantage run must also show genuine divergence:
	// something only one vantage contributes.
	if exclusives == 0 {
		t.Error("no vantage contributes exclusive backends; federation is degenerate")
	}
}

// TestFederatedSingleVantageTransparent: one-vantage federation is the
// single-vantage pipeline under another name — same ContactCounter,
// same Study, and a union identical to the one vantage.
func TestFederatedSingleVantageTransparent(t *testing.T) {
	w, pipeStudy, pipeCC := buildStudy(t)
	agg := NewShardedAggregator(cachedIdx, w.Days, Options{
		ScannerThreshold: 100,
		SamplingRate:     cachedNet.Cfg.SamplingRate,
		FocusAlias:       "T1",
		FocusRegion:      "us-east-1",
		Vantage:          "solo",
	}, testShards)
	cachedNet.SimulateLines(agg.Shards(),
		func(shard int) func(netflow.Record) { return agg.Shard(shard).Ingest },
		func(shard int, _ *isp.Line) { agg.Shard(shard).EndLine() },
	)
	parts := make([]*ShardPartial, agg.Shards())
	for i := range parts {
		parts[i] = agg.Shard(i)
	}
	fed := FederatedMerge(parts)
	if fmt.Sprint(fed.Names) != "[solo]" {
		t.Fatalf("names = %v", fed.Names)
	}
	if !reflect.DeepEqual(fed.CC["solo"].contactSets(), pipeCC.contactSets()) {
		t.Error("single-vantage federation contact counter differs from the plain pipeline")
	}
	if !reflect.DeepEqual(named(fed.Col["solo"].Study()), named(pipeStudy)) {
		t.Error("single-vantage federation study differs from the plain pipeline")
	}
	if !reflect.DeepEqual(named(fed.UnionCol.Study()), named(pipeStudy)) {
		t.Error("single-vantage union differs from its only vantage")
	}
	if !reflect.DeepEqual(fed.UnionCC.contactSets(), pipeCC.contactSets()) {
		t.Error("single-vantage union contacts differ from its only vantage")
	}
}

// TestCollectorCloneComplete guards the hand-enumerated deep copies in
// clone(): a populated collector and its clone must be deeply equal (a
// future Collector aggregate missing from clone fails here, loudly,
// instead of silently vanishing from union studies). Merging into the
// clone, with a donor() copy of the original as the donor, must leave
// the original untouched: neither copy shares what the merge writes.
func TestCollectorCloneComplete(t *testing.T) {
	w, pipeStudy, pipeCC := buildStudy(t)
	cc, col := runPipeline(cachedNet, cachedIdx, w, 1)

	ccClone, colClone := cc.clone(), col.clone()
	if !reflect.DeepEqual(colClone, col) {
		t.Fatal("collector clone not deeply equal to the original (a field is missing from clone())")
	}
	if !reflect.DeepEqual(ccClone.contactSets(), cc.contactSets()) {
		t.Fatal("contact counter clone not deeply equal to the original")
	}

	// Merges consume their donors and mutate the receiver in place; the
	// originals behind the copies must not move.
	colClone.Merge(col.donor())
	ccClone.Merge(cc.clone())
	// An empty receiver adopts what a donor lends by reference; writing
	// through it must not reach the original either.
	fresh := NewCollector(col.idx, col.days, studyOpts(cachedNet))
	fresh.Merge(col.donor())
	for a := range fresh.visible {
		clearBits(fresh.visible[a])
		for _, s := range []*analysis.Series{fresh.downHour[a], fresh.upHour[a]} {
			if s != nil {
				clear(s.Values)
			}
		}
	}
	if !reflect.DeepEqual(named(col.Study()), named(pipeStudy)) {
		t.Error("a merge mutated the original collector through a copy (aliased aggregate)")
	}
	if !reflect.DeepEqual(cc.contactSets(), pipeCC.contactSets()) {
		t.Error("merging a clone mutated the original contact counter")
	}
}

package flows

import (
	"math/bits"
	"sort"
)

// Multi-vantage federation: the paper's measurement runs over two
// vantage points (a residential ISP and an IXP) and asks which parts of
// the IoT backend ecosystem each can see. FederatedMerge is the
// aggregation seam for that question — shard partials arrive tagged
// with the vantage that observed them (ShardPartial.Vantage), merge
// into one ContactCounter/Collector per vantage exactly as the
// single-vantage pipeline would, and additionally fold into an exact
// union across vantages. Everything is built from the merge algebra
// (sets and uint64 volume sums, exact for every counter), so the result
// is independent of both shard order and vantage order, and union
// volumes equal the per-vantage sums exactly. Backend IDs are
// global to the shared index, so the cross-vantage set comparisons in
// Coverage are plain bitset algebra.

// Federation is FederatedMerge's result: the per-vantage aggregates
// plus their union. Per-vantage values are the exact collectors a
// single-vantage pipeline over the same feed would produce; the union
// shares no storage with them, so finalizing one never disturbs another.
type Federation struct {
	// Names lists the vantage labels, sorted.
	Names []string
	// CC and Col are the per-vantage merged aggregates.
	CC  map[string]*ContactCounter
	Col map[string]*Collector
	// UnionCC and UnionCol merge every vantage's aggregates: contact
	// sets union, volumes add exactly (uint64 sums), line
	// sets union (vantage address plans are disjoint, so no aliasing).
	UnionCC  *ContactCounter
	UnionCol *Collector
}

// FederatedMerge folds vantage-tagged shard partials into per-vantage
// aggregates and their union. Partials group by ShardPartial.Vantage;
// within and across groups the merge is order-independent, so any
// permutation of parts yields identical results. Like MergePartials it
// consumes the partials (donor aggregates are adopted by reference) and
// requires a non-empty slice; all partials must share the backend
// index, study days, and per-vantage Options.
func FederatedMerge(parts []*ShardPartial) *Federation {
	groups := map[string][]*ShardPartial{}
	for _, p := range parts {
		groups[p.Vantage] = append(groups[p.Vantage], p)
	}
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)

	f := &Federation{
		Names: names,
		CC:    make(map[string]*ContactCounter, len(names)),
		Col:   make(map[string]*Collector, len(names)),
	}
	ccs, cols := make([]*ContactCounter, len(names)), make([]*Collector, len(names))
	for i, name := range names {
		f.CC[name], f.Col[name] = MergePartials(groups[name])
		ccs[i], cols[i] = f.CC[name], f.Col[name]
		if i > 0 {
			cols[i] = cols[i].donor()
		}
	}
	// The union starts from a copy of the first vantage's aggregates and
	// merges the others, which ContactCounter.Merge only reads and the
	// collector donors keep untouched.
	f.UnionCC, f.UnionCol = ccs[0].clone(), cols[0].clone()
	f.UnionCC.Merge(ccs[1:]...)
	f.UnionCol.Merge(cols[1:]...)
	return f
}

// VantageCoverage is one vantage's slice of the cross-vantage backend
// comparison.
type VantageCoverage struct {
	Vantage string
	// Backends counts distinct backend addresses with observed traffic.
	Backends int
	// Exclusive counts backends visible at this vantage and nowhere else.
	Exclusive int
	// Providers counts aliases with at least one visible backend.
	Providers int
	// HoursCovered/HoursTotal are the vantage's feed-liveness window:
	// study hours with at least one analyzed record.
	HoursCovered int
	HoursTotal   int
	// Degraded marks a vantage whose feed missed hours that some other
	// vantage covered — the signature of a died or corrupted stream, as
	// opposed to a study window nobody observed (a single-vantage
	// federation is never degraded by its own gaps).
	Degraded bool
}

// AliasCoverage is one provider's cross-vantage row.
type AliasCoverage struct {
	Alias string
	// Union counts the provider's backends visible from any vantage.
	Union int
	// Everywhere counts those visible from every vantage.
	Everywhere int
	// PerVantage counts visible backends per vantage name.
	PerVantage map[string]int
}

// CoverageReport is the paper's vantage-comparison angle quantified:
// which backends (and providers) are visible from which vantage, what
// only one vantage contributes, and what the union looks like.
type CoverageReport struct {
	// Vantages holds per-vantage totals, sorted by name.
	Vantages []VantageCoverage
	// Union is |A ∪ B ∪ ...| over all vantages' visible backends.
	Union int
	// Everywhere counts backends visible at every vantage.
	Everywhere int
	// Aliases holds the per-provider breakdown, sorted by alias.
	Aliases []AliasCoverage
}

// Coverage computes the cross-vantage coverage report from the
// federation's per-vantage collectors: per-vantage visibility unions,
// their global union and intersection, and per-alias slices — all as
// bitset algebra over the shared backend ID space.
func (f *Federation) Coverage() *CoverageReport {
	first := f.Col[f.Names[0]]
	first.idx.checkGen(first.gen)
	idx := first.idx
	words := idx.words

	// Per-vantage all-alias visibility unions, plus global union/
	// intersection.
	perVantage := make([][]uint64, len(f.Names))
	union := make([]uint64, words)
	everywhere := make([]uint64, words)
	for vi, name := range f.Names {
		vb := make([]uint64, words)
		for a := 0; a < len(idx.aliasNames); a++ {
			if vs := f.Col[name].visible[a]; vs != nil {
				orBits(vb, vs)
			}
		}
		perVantage[vi] = vb
		orBits(union, vb)
		if vi == 0 {
			copy(everywhere, vb)
		} else {
			for w := range everywhere {
				everywhere[w] &= vb[w]
			}
		}
	}
	rep := &CoverageReport{Union: popcount(union), Everywhere: popcount(everywhere)}

	// Cross-vantage hour-coverage union: a vantage is degraded when it
	// missed hours a sibling covered.
	hoursUnion := make([]uint64, first.hw)
	for _, name := range f.Names {
		orBits(hoursUnion, f.Col[name].coverBits)
	}

	for vi, name := range f.Names {
		others := make([]uint64, words)
		for vj := range f.Names {
			if vj != vi {
				orBits(others, perVantage[vj])
			}
		}
		exclusive := 0
		for w := range perVantage[vi] {
			exclusive += bits.OnesCount64(perVantage[vi][w] &^ others[w])
		}
		providers := 0
		for a := 0; a < len(idx.aliasNames); a++ {
			if f.Col[name].visible[a] != nil {
				providers++
			}
		}
		degraded := false
		cb := f.Col[name].coverBits
		for w := range hoursUnion {
			if hoursUnion[w]&^cb[w] != 0 {
				degraded = true
				break
			}
		}
		rep.Vantages = append(rep.Vantages, VantageCoverage{
			Vantage:      name,
			Backends:     popcount(perVantage[vi]),
			Exclusive:    exclusive,
			Providers:    providers,
			HoursCovered: popcount(cb),
			HoursTotal:   f.Col[name].hours,
			Degraded:     degraded,
		})
	}

	// Per-alias rows: aliasNames is sorted, so the rows come out sorted.
	aliasUnion := make([]uint64, words)
	aliasEvery := make([]uint64, words)
	for a := 0; a < len(idx.aliasNames); a++ {
		clearBits(aliasUnion)
		perV := map[string]int{}
		any, missing := false, false
		for _, name := range f.Names {
			vs := f.Col[name].visible[a]
			if vs == nil {
				// An absent vantage empties the intersection.
				missing = true
				continue
			}
			if !any {
				copy(aliasEvery, vs)
			} else {
				for w := range aliasEvery {
					aliasEvery[w] &= vs[w]
				}
			}
			any = true
			orBits(aliasUnion, vs)
			perV[name] = popcount(vs)
		}
		if !any {
			continue
		}
		if missing {
			clearBits(aliasEvery)
		}
		rep.Aliases = append(rep.Aliases, AliasCoverage{
			Alias:      idx.aliasNames[a],
			Union:      popcount(aliasUnion),
			Everywhere: popcount(aliasEvery),
			PerVantage: perV,
		})
	}
	return rep
}

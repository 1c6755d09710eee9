// Package discovery implements the source-fusion stage of the
// methodology (Section 3.3): TLS certificates from the IPv4-wide scan
// snapshots, the custom ZGrab IPv6 scan over the hitlists, passive DNS
// queries with the provider regexes, and daily active DNS resolution of
// every DNSDB-identified name from three vantage points. Each discovered
// address carries its source tags, the raw material of Figure 3; the
// root package's TestFigure3FusionFindsMore checks that the fused
// sources find more addresses than any single one.
//
// Computed once per study period: the IPv6 scan, each pattern's
// passive-DNS query (its observations and whole-period name set), and
// active resolution — every distinct (view, name, type, RRset version) of
// the week makes one Pack -> HandleWire -> Unpack round trip, so every
// answer set the week contains still crosses the dnsmsg wire codec, and
// nothing is learned about an active-DNS answer any other way. Computed
// per provider, on the worker pool: the week's certificate searches over
// the day snapshots (the regex verdicts themselves are the scan catalog's,
// shared by all days; each certificate's names are canonicalized once per
// run), each day's passive-DNS sightings (the whole-period observations
// whose window overlaps the day), and the fusion of each day's sources
// from the decoded answers, into the dense Result: one address ID space
// per provider, a column pair per day, and the names and ports of the
// week union in ID-indexed arenas.
package discovery

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iotmap/internal/analysis"
	"iotmap/internal/censys"
	"iotmap/internal/certmodel"
	"iotmap/internal/core/patterns"
	"iotmap/internal/dnsdb"
	"iotmap/internal/dnsmsg"
	"iotmap/internal/dnszone"
	"iotmap/internal/hitlist"
	"iotmap/internal/proto"
	"iotmap/internal/zgrab"
)

// Source is a discovery channel bitmask.
type Source uint8

// Sources; SrcCert covers both the IPv4 snapshot certificates and the
// custom IPv6 scan (Figure 3 groups them as "Censys/Active Meas.").
const (
	SrcCert Source = 1 << iota
	SrcPDNS
	SrcActive
)

// Has reports whether the set contains s.
func (s Source) Has(q Source) bool { return s&q != 0 }

// Count returns the number of distinct sources in the set.
func (s Source) Count() int {
	n := 0
	for _, b := range []Source{SrcCert, SrcPDNS, SrcActive} {
		if s.Has(b) {
			n++
		}
	}
	return n
}

// String renders the set.
func (s Source) String() string {
	switch {
	case s.Count() > 1:
		return "multiple"
	case s.Has(SrcCert):
		return "certificates"
	case s.Has(SrcPDNS):
		return "passive-dns"
	case s.Has(SrcActive):
		return "active-dns"
	default:
		return "none"
	}
}

// Port is one open port seen at an address, with its protocol
// fingerprint.
type Port struct {
	Key      proto.PortKey
	Protocol proto.Protocol
}

// DayResult is one provider's discovery set for one day: two columns over
// the Result's address IDs.
type DayResult struct {
	Day time.Time
	// IDs are the day's addresses, ascending; Sources[i] tags IDs[i].
	IDs     []uint32
	Sources []Source
}

// Result is one provider's discovery across the whole study period.
//
// Every address the provider's sources yield on any study day has an ID:
// its rank in address order among those addresses, so an ID is a
// function of the week's discoveries and never of scheduling. A day is a
// column over the IDs. The names and open ports seen at an address are
// needed only for the week union (geolocation, Table 1), so they are kept
// once per address, in ID-indexed arenas over one name table.
type Result struct {
	Provider string
	Days     []DayResult
	// VPGain is the coverage gain of using all three DNS vantage points
	// versus the first (Section 3.3's ≈17%).
	VPGain float64

	addrs   []netip.Addr // ID -> address, ascending
	sources []Source     // ID -> sources fused over every day
	// names is the name table, ascending: a name's ID is its rank. The
	// name IDs of address id, ascending, are nameIDs[nameOff[id]:
	// nameOff[id+1]]; its ports, ascending, ports[portOff[id]:
	// portOff[id+1]].
	names            []string
	nameOff, nameIDs []uint32
	portOff          []uint32
	ports            []Port
}

// Addrs returns every address discovered on any day, ascending; an
// address's index is its ID (shared slice; callers must not mutate).
func (r *Result) Addrs() []netip.Addr { return r.addrs }

// Sources returns the sources that found address id on any day.
func (r *Result) Sources(id uint32) Source { return r.sources[id] }

// NameIDs returns the IDs of the names observed mapping to address id
// (certificate SANs, DNSDB rrnames, actively resolved names) on any day,
// ascending, which is the names' sorted order (shared slice).
func (r *Result) NameIDs(id uint32) []uint32 { return r.nameIDs[r.nameOff[id]:r.nameOff[id+1]] }

// Name returns the name with ID nid.
func (r *Result) Name(nid uint32) string { return r.names[nid] }

// NameCount returns the size of the name table: name IDs are below it.
func (r *Result) NameCount() int { return len(r.names) }

// Ports returns the open ports the scan channels saw at address id on any
// day, ascending (shared slice).
func (r *Result) Ports(id uint32) []Port { return r.ports[r.portOff[id]:r.portOff[id+1]] }

// Inputs wires the observation channels into the pipeline.
type Inputs struct {
	Patterns []*patterns.Pattern
	Censys   *censys.Service
	PDNS     *dnsdb.DB
	// Hitlist and Fabric drive the custom IPv6 scan; either may be nil
	// to skip it.
	Hitlist *hitlist.Hitlist
	Fabric  zgrab.Dialer
	// Zones holds the authoritative store of each study day (active
	// resolution), parallel to Days. Between stores related through
	// dnszone.Store.Derive an unchanged RRset is resolved once for the
	// whole period; unrelated stores are resolved in full, day by day.
	// Nil skips active DNS.
	Zones []*dnszone.Store
	// Views are the vantage-point view names (first one is the
	// single-VP baseline for the gain metric).
	Views []string
	Days  []time.Time
	Seed  int64
}

// compiled carries the per-pattern state Run precomputes once instead of
// per day: the precompiled (anchored) PDNS query, its whole-period
// address observations and the full-period name set active resolution
// always targets.
type compiled struct {
	p *patterns.Pattern
	// q is the precompiled Flexible Search handle; nil for fixed-FQDN
	// providers, which use Basic Search.
	q *dnsdb.Query
	// sightings are the whole-period query's address observations, in
	// query order, with their parsed addresses in sightingAddrs. A day's
	// query returns exactly those whose window overlaps the day.
	sightings     []dnsdb.Observation
	sightingAddrs []netip.Addr
	// wholeNames is every rrname DNSDB has ever seen for the provider
	// (day-independent, so queried once for the whole study period).
	wholeNames []string
}

// Run executes discovery for every provider pattern. Providers are
// independent given the precomputed state (scan snapshots, IPv6 hits,
// passive-DNS observations, decoded active answers), so each provider's
// week runs as one job on a bounded worker pool and interns its own
// addresses and names; nothing is shared between jobs but read-only
// inputs, and the output does not depend on scheduling. Inputs must be
// safe for concurrent reads (the stock censys/dnsdb/world implementations
// are).
func Run(ctx context.Context, in Inputs) (map[string]*Result, error) {
	if len(in.Days) == 0 {
		return nil, fmt.Errorf("discovery: no study days")
	}
	if in.Zones != nil && len(in.Zones) != len(in.Days) {
		return nil, fmt.Errorf("discovery: %d zone stores for %d study days", len(in.Zones), len(in.Days))
	}
	// A day without a scan snapshot fails the run before any work.
	var snaps []*censys.Snapshot
	if in.Censys != nil {
		snaps = make([]*censys.Snapshot, len(in.Days))
		for di, day := range in.Days {
			snap, err := in.Censys.Get(day)
			if err != nil {
				return nil, err
			}
			snaps[di] = snap
		}
	}

	// The custom IPv6 scan runs once for the study period.
	v6ByProvider, err := runV6Scan(ctx, in)
	if err != nil {
		return nil, err
	}

	cps, err := compileAll(in)
	if err != nil {
		return nil, err
	}

	// Active resolution for the whole study period: each distinct answer
	// set crosses the wire once, and the days read the decoded answers.
	var active *activeDNS
	if in.Zones != nil && len(in.Views) > 0 {
		active, err = resolveWeek(ctx, in, cps)
		if err != nil {
			return nil, err
		}
	}

	out := make([]*Result, len(cps))
	analysis.ForEach(len(cps), func(pi int) {
		out[pi] = discoverProvider(ctx, in, snaps, v6ByProvider[cps[pi].p.ProviderID()], cps[pi], active, pi)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make(map[string]*Result, len(cps))
	for _, r := range out {
		results[r.Provider] = r
	}
	return results, nil
}

// compileAll precomputes the per-pattern state of a run.
func compileAll(in Inputs) ([]*compiled, error) {
	cps := make([]*compiled, len(in.Patterns))
	for i, p := range in.Patterns {
		cp := &compiled{p: p}
		if in.PDNS != nil {
			if len(p.Doc.FixedFQDNs) == 0 {
				var err error
				cp.q, err = dnsdb.CompileQuery(p.Regex.String(), p.Anchors()...)
				if err != nil {
					return nil, err
				}
			}
			// Active resolution targets every name DNSDB has ever seen
			// for the provider, not just one day's sightings.
			whole := queryPDNS(in.PDNS, cp, dnsdb.TimeRange{})
			set := map[string]struct{}{}
			for _, o := range whole {
				set[o.RRName] = struct{}{}
				if a, ok := o.Addr(); ok {
					cp.sightings = append(cp.sightings, o)
					cp.sightingAddrs = append(cp.sightingAddrs, a)
				}
			}
			cp.wholeNames = sortedNames(set)
		}
		cps[i] = cp
	}
	return cps, nil
}

// discoverProvider performs one provider's discovery over the study
// period, day by day, and returns its dense Result. A cancelled ctx stops
// it between days; Run then reports the error.
func discoverProvider(ctx context.Context, in Inputs, snaps []*censys.Snapshot, v6 []v6Hit, cp *compiled, active *activeDNS, pi int) *Result {
	p := cp.p
	wb := newWeekBuilder()
	// Everything that is the same on every day is interned once: the
	// IPv6 scan's hits (with their names and ports, which hold all week),
	// the passive-DNS sightings, the active-resolution targets and the
	// addresses of each of the pattern's round trips.
	v6IDs := make([]uint32, len(v6))
	for i, hit := range v6 {
		id := wb.addr(hit.addr)
		v6IDs[i] = id
		wb.addPort(id, Port{hit.port, hit.protocol})
		for _, n := range hit.names {
			wb.addName(id, wb.name(n))
		}
	}
	sightAddr := make([]uint32, len(cp.sightings))
	sightName := make([]uint32, len(cp.sightings))
	for i := range cp.sightings {
		sightAddr[i] = wb.addr(cp.sightingAddrs[i])
		sightName[i] = wb.name(cp.sightings[i].RRName)
	}
	// sightNamed[i]: sighting i's name is recorded at its address.
	sightNamed := make([]bool, len(cp.sightings))
	var targets []uint32
	var trips roundTrips
	if active != nil {
		targets = make([]uint32, len(cp.wholeNames))
		for ni, n := range cp.wholeNames {
			targets[ni] = wb.name(n)
		}
		trips = wb.roundTrips(active, pi)
	}

	for di, day := range in.Days {
		if ctx.Err() != nil {
			return nil
		}
		// (1) Certificates from the IPv4 snapshots. A certificate's names
		// are canonicalized once per run, and recorded at an address once
		// per certificate; the address's open ports are those of the
		// endpoints up on the day, taken once per address and day.
		if snaps != nil {
			var prev netip.Addr
			snap := snaps[di]
			for _, rec := range snap.SearchCertsAnchored(p.Regex, p.Anchors()) {
				id := wb.addr(rec.Addr)
				wb.hit(id, SrcCert)
				if wb.certNamed[id] != rec.Cert {
					wb.certNamed[id] = rec.Cert
					for _, nid := range wb.certNames(rec.Cert) {
						wb.addName(id, nid)
					}
				}
				if rec.Addr != prev {
					prev = rec.Addr
					for _, sib := range snap.ByAddr(rec.Addr) {
						wb.addPort(id, Port{proto.PortKey{Transport: sib.Transport, Port: sib.Port}, sib.Protocol})
					}
				}
			}
		}
		// (2) Custom IPv6 scan results apply to every day.
		for _, id := range v6IDs {
			wb.hit(id, SrcCert)
		}
		// (3) Passive DNS: the day's query, as a filter over the
		// whole-period one.
		tr := dnsdb.TimeRange{From: day, To: day.Add(24 * time.Hour)}
		for i := range cp.sightings {
			if tr.Contains(&cp.sightings[i]) {
				wb.hit(sightAddr[i], SrcPDNS)
				if !sightNamed[i] {
					sightNamed[i] = true
					wb.addName(sightAddr[i], sightName[i])
				}
			}
		}
		// (4) Daily active resolution from every vantage point. The
		// targets are cp.wholeNames: the day's own sightings are a subset
		// of the unbounded query by TimeRange's definition.
		var gain float64
		if active != nil && len(targets) > 0 {
			slots := active.slots[di][pi]
			firstVP, allVP := 0, 0
			for vi := range in.Views {
				for ni, nid := range targets {
					k := (vi*len(targets) + ni) * len(addrTypes)
					for _, t := range slots[k : k+len(addrTypes)] {
						i := t - trips.first
						for _, id := range trips.ids[trips.off[i]:trips.off[i+1]] {
							if !wb.day[id].Has(SrcActive) {
								// First sighting by any vantage point;
								// view 0 goes first, so its share of
								// these is the single-VP baseline.
								allVP++
							}
							wb.hit(id, SrcActive)
							if !trips.named[i] {
								wb.addName(id, nid)
							}
						}
						trips.named[i] = true
					}
				}
				if vi == 0 {
					firstVP = allVP
				}
			}
			if firstVP > 0 {
				gain = float64(allVP)/float64(firstVP) - 1
			}
		}
		wb.endDay(day, gain/float64(len(in.Days)))
	}
	return wb.build(p.ProviderID())
}

// roundTrips is one pattern's share of the week's active resolution, its
// decoded answers interned: round trip t answered ids[off[t-first]:
// off[t-first+1]]. A round trip recurs on every day its answer set
// holds, but its name need be recorded at its answers only once:
// named[t-first] says that is done.
type roundTrips struct {
	first int32
	off   []uint32
	ids   []uint32
	named []bool
}

// weekBuilder gathers one provider's study period. Addresses and names
// get provisional IDs in the order they are first seen; build ranks them.
type weekBuilder struct {
	addrID map[netip.Addr]uint32
	addrs  []netip.Addr
	nameID map[string]uint32
	names  []string
	// certIDs holds each certificate's canonical name IDs.
	certIDs map[*certmodel.Spec][]uint32
	// certNamed[id] is the certificate whose names are recorded at id.
	certNamed []*certmodel.Spec

	day     []Source // provisional ID -> the current day's sources
	touched []uint32 // provisional IDs the current day found, in order
	week    []Source // provisional ID -> sources over every day so far
	days    []DayResult
	vpGain  float64

	// namePairs and portPairs pack (provisional address ID << 32 |
	// provisional name ID) and (provisional address ID << 32 | port),
	// duplicates included.
	namePairs, portPairs []uint64
}

func newWeekBuilder() *weekBuilder {
	return &weekBuilder{
		addrID:  map[netip.Addr]uint32{},
		nameID:  map[string]uint32{},
		certIDs: map[*certmodel.Spec][]uint32{},
	}
}

// addr interns an address.
func (wb *weekBuilder) addr(a netip.Addr) uint32 {
	id, ok := wb.addrID[a]
	if !ok {
		id = uint32(len(wb.addrs))
		wb.addrID[a] = id
		wb.addrs = append(wb.addrs, a)
		wb.day = append(wb.day, 0)
		wb.week = append(wb.week, 0)
		wb.certNamed = append(wb.certNamed, nil)
	}
	return id
}

// name interns a name.
func (wb *weekBuilder) name(n string) uint32 {
	id, ok := wb.nameID[n]
	if !ok {
		id = uint32(len(wb.names))
		wb.nameID[n] = id
		wb.names = append(wb.names, n)
	}
	return id
}

// certNames returns the name IDs of a certificate's canonical names.
func (wb *weekBuilder) certNames(c *certmodel.Spec) []uint32 {
	ids, ok := wb.certIDs[c]
	if !ok {
		for _, n := range c.AllNames() {
			ids = append(ids, wb.name(dnsmsg.CanonicalName(n)))
		}
		wb.certIDs[c] = ids
	}
	return ids
}

// roundTrips interns the addresses of pattern pi's round trips.
func (wb *weekBuilder) roundTrips(act *activeDNS, pi int) roundTrips {
	lo, hi := act.first[pi], act.first[pi+1]
	rt := roundTrips{first: lo, off: make([]uint32, 1, hi-lo+1), named: make([]bool, hi-lo)}
	for _, ans := range act.answers[lo:hi] {
		for _, a := range ans {
			rt.ids = append(rt.ids, wb.addr(a))
		}
		rt.off = append(rt.off, uint32(len(rt.ids)))
	}
	return rt
}

// hit tags address id with a source for the current day.
func (wb *weekBuilder) hit(id uint32, s Source) {
	if wb.day[id] == 0 {
		wb.touched = append(wb.touched, id)
	}
	wb.day[id] |= s
}

func (wb *weekBuilder) addName(id, nid uint32) {
	wb.namePairs = append(wb.namePairs, uint64(id)<<32|uint64(nid))
}

func (wb *weekBuilder) addPort(id uint32, pt Port) {
	v := uint64(pt.Key.Transport)<<24 | uint64(pt.Key.Port)<<8 | uint64(pt.Protocol)
	wb.portPairs = append(wb.portPairs, uint64(id)<<32|v)
}

// endDay closes the current day; the column keeps provisional IDs until
// build.
func (wb *weekBuilder) endDay(day time.Time, gain float64) {
	dr := DayResult{Day: day, IDs: make([]uint32, len(wb.touched)), Sources: make([]Source, len(wb.touched))}
	for i, id := range wb.touched {
		dr.IDs[i], dr.Sources[i] = id, wb.day[id]
		wb.week[id] |= wb.day[id]
		wb.day[id] = 0
	}
	wb.touched = wb.touched[:0]
	wb.days = append(wb.days, dr)
	wb.vpGain += gain
}

// build ranks the discovered addresses and the names recorded at them,
// and lays the week out as ID columns and arenas.
func (wb *weekBuilder) build(provider string) *Result {
	res := &Result{Provider: provider, Days: wb.days, VPGain: wb.vpGain}
	// Interned addresses no day found (a sighting outside every day) get
	// no ID.
	order := make([]uint32, 0, len(wb.addrs))
	for id, s := range wb.week {
		if s != 0 {
			order = append(order, uint32(id))
		}
	}
	slices.SortFunc(order, func(x, y uint32) int { return wb.addrs[x].Compare(wb.addrs[y]) })
	rank := make([]uint32, len(wb.addrs))
	res.addrs = make([]netip.Addr, len(order))
	res.sources = make([]Source, len(order))
	for r, id := range order {
		rank[id] = uint32(r)
		res.addrs[r], res.sources[r] = wb.addrs[id], wb.week[id]
	}

	// Day columns in ID order: scatter by rank, gather ascending.
	scatter := make([]Source, len(order))
	for d := range res.Days {
		dr := &res.Days[d]
		for i, id := range dr.IDs {
			scatter[rank[id]] = dr.Sources[i]
		}
		i := 0
		for r, s := range scatter {
			if s != 0 {
				dr.IDs[i], dr.Sources[i] = uint32(r), s
				scatter[r] = 0
				i++
			}
		}
	}

	// The name table holds the names recorded at some address, ranked.
	seen := make([]bool, len(wb.names))
	var used []uint32
	for _, pr := range wb.namePairs {
		if n := uint32(pr); !seen[n] {
			seen[n] = true
			used = append(used, n)
		}
	}
	slices.SortFunc(used, func(x, y uint32) int { return strings.Compare(wb.names[x], wb.names[y]) })
	nameRank := make([]uint32, len(wb.names))
	res.names = make([]string, len(used))
	for r, n := range used {
		nameRank[n] = uint32(r)
		res.names[r] = wb.names[n]
	}
	// A name or port is only ever recorded at an address some day found
	// (the IPv6 hits' before the first day, but they are found on every
	// day), so every pair's address has a rank.
	for i, pr := range wb.namePairs {
		wb.namePairs[i] = uint64(rank[pr>>32])<<32 | uint64(nameRank[uint32(pr)])
	}
	res.nameOff, res.nameIDs = arena(wb.namePairs, len(order))

	for i, pr := range wb.portPairs {
		wb.portPairs[i] = uint64(rank[pr>>32])<<32 | pr&0xffffffff
	}
	var packed []uint32
	res.portOff, packed = arena(wb.portPairs, len(order))
	res.ports = make([]Port, len(packed))
	for i, v := range packed {
		res.ports[i] = Port{proto.PortKey{Transport: proto.Transport(v >> 24), Port: uint16(v >> 8)}, proto.Protocol(v)}
	}
	return res
}

// arena sorts and deduplicates (key << 32 | value) pairs and returns them
// as offsets over n keys and the values: key k's distinct values,
// ascending, are vals[off[k]:off[k+1]].
func arena(pairs []uint64, n int) (off, vals []uint32) {
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	off = make([]uint32, n+1)
	vals = make([]uint32, len(pairs))
	for i, pr := range pairs {
		off[pr>>32+1]++
		vals[i] = uint32(pr)
	}
	for k := 1; k <= n; k++ {
		off[k] += off[k-1]
	}
	return off, vals
}

// queryPDNS runs the provider's documented query style: Basic Search for
// fixed-FQDN providers, the precompiled Flexible Search otherwise.
func queryPDNS(db *dnsdb.DB, cp *compiled, tr dnsdb.TimeRange) []dnsdb.Observation {
	if fixed := cp.p.Doc.FixedFQDNs; len(fixed) > 0 {
		var out []dnsdb.Observation
		for _, f := range fixed {
			out = append(out, db.BasicSearch(f, 0, tr)...)
		}
		return out
	}
	return db.FlexibleSearchQuery(cp.q, 0, tr)
}

func sortedNames(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// addrTypes are the record types active resolution asks for, per name.
var addrTypes = [...]dnsmsg.Type{dnsmsg.TypeA, dnsmsg.TypeAAAA}

// activeDNS is the study period's active resolution, done once: the
// decoded answer of every wire round trip, and for each day which round
// trip answers each question.
type activeDNS struct {
	// answers[t] is the address list round trip t decoded.
	answers [][]netip.Addr
	// slots[day][pattern] maps a question to its round trip; the question
	// (view vi, name ni of the pattern's wholeNames, type ti) sits at
	// (vi*len(wholeNames)+ni)*len(addrTypes)+ti.
	slots [][][]int32
	// first[pi] is pattern pi's first round trip; its round trips are
	// [first[pi], first[pi+1]).
	first []int32
	// roundTrips counts the HandleWire calls made.
	roundTrips atomic.Int64
}

// wireQuery is one question to put to one day's authoritative server.
type wireQuery struct {
	srv  *dnszone.Server
	name string
	typ  dnsmsg.Type
}

// resolveWeek resolves every pattern's names from every vantage point
// for every study day, exercising the full DNS wire codec via HandleWire.
// Answer sets mostly survive from one day to the next, and the zone
// stores say so (dnszone.Store.AnswerID): a question whose answer set is
// one already asked for is not asked again, so each distinct (view, name,
// type, RRset) of the week makes exactly one Pack -> HandleWire -> Unpack
// round trip. Which round trips happen is planned serially from the
// stores alone; only their execution is spread over the workers.
func resolveWeek(ctx context.Context, in Inputs, cps []*compiled) (*activeDNS, error) {
	stores := in.Zones
	srvs := make([][]*dnszone.Server, len(in.Days))
	for di := range in.Days {
		for _, view := range in.Views {
			srvs[di] = append(srvs[di], dnszone.NewLocalServer(stores[di], view))
		}
	}

	act := &activeDNS{slots: make([][][]int32, len(in.Days))}
	for di := range act.slots {
		act.slots[di] = make([][]int32, len(cps))
	}
	type version struct {
		id dnszone.SetID
		t  int32
	}
	var queries []wireQuery
	var seen []version
	for pi, cp := range cps {
		act.first = append(act.first, int32(len(queries)))
		for di := range in.Days {
			act.slots[di][pi] = make([]int32, len(in.Views)*len(cp.wholeNames)*len(addrTypes))
		}
		k := 0
		for vi, view := range in.Views {
			for _, name := range cp.wholeNames {
				for _, typ := range addrTypes {
					seen = seen[:0]
					for di := range in.Days {
						id, stable := stores[di].AnswerID(view, name, typ)
						t := int32(-1)
						for _, v := range seen {
							if stable && v.id == id {
								t = v.t
								break
							}
						}
						if t < 0 {
							t = int32(len(queries))
							queries = append(queries, wireQuery{srv: srvs[di][vi], name: name, typ: typ})
							if stable {
								seen = append(seen, version{id, t})
							}
						}
						act.slots[di][pi][k] = t
					}
					k++
				}
			}
		}
	}

	act.first = append(act.first, int32(len(queries)))
	act.answers = make([][]netip.Addr, len(queries))
	workers := runtime.GOMAXPROCS(0)
	const chunk = 64 // queries a worker claims at a time
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := dnsmsg.Message{
				Header:    dnsmsg.Header{RecursionDesired: true},
				Questions: make([]dnsmsg.Question, 1),
			}
			var buf []byte
			// The worker's decoded answers share one arena; each round
			// trip's slice is capped, so later appends never overlap it.
			var arena []netip.Addr
			trips := 0
			defer func() { act.roundTrips.Add(int64(trips)) }()
			for ctx.Err() == nil {
				lo := int(next.Add(chunk)) - chunk
				if lo >= len(queries) {
					return
				}
				for t := lo; t < min(lo+chunk, len(queries)); t++ {
					wq := queries[t]
					q.Header.ID = uint16(in.Seed) + uint16(t)
					q.Questions[0] = dnsmsg.Question{Name: wq.name, Type: wq.typ, Class: dnsmsg.ClassIN}
					wire, err := q.Append(buf[:0])
					if err != nil {
						continue
					}
					buf = wire
					trips++
					start := len(arena)
					arena = decodeAddrs(arena, wq.srv.HandleWire(wire))
					act.answers[t] = arena[start:len(arena):len(arena)]
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return act, nil
}

// decodeAddrs unpacks one response datagram and appends the addresses of
// a successful answer to addrs; a dropped query or a failure adds none.
func decodeAddrs(addrs []netip.Addr, resp []byte) []netip.Addr {
	if resp == nil {
		return addrs
	}
	m, err := dnsmsg.Unpack(resp)
	if err != nil || m.Header.RCode != dnsmsg.RCodeSuccess {
		return addrs
	}
	for _, rr := range m.Answers {
		if rr.Type == dnsmsg.TypeA || rr.Type == dnsmsg.TypeAAAA {
			addrs = append(addrs, rr.Addr)
		}
	}
	return addrs
}

// v6Hit is one IPv6 scan discovery.
type v6Hit struct {
	addr     netip.Addr
	port     proto.PortKey
	protocol proto.Protocol
	names    []string
}

// runV6Scan performs the custom ZGrab scan over the hitlist and matches
// harvested certificates against every provider pattern.
func runV6Scan(ctx context.Context, in Inputs) (map[string][]v6Hit, error) {
	out := map[string][]v6Hit{}
	if in.Hitlist == nil || in.Fabric == nil {
		return out, nil
	}
	sc := &zgrab.Scanner{Dialer: in.Fabric, Timeout: 3 * time.Second, Concurrency: 8, Seed: in.Seed}
	results := sc.Scan(ctx, zgrab.IoTTargets(in.Hitlist.WithIoTPorts()))
	for _, r := range zgrab.WithCerts(results) {
		for _, p := range in.Patterns {
			if !r.Cert.MatchesRegexp(p.Regex) {
				continue
			}
			var names []string
			for _, n := range r.Cert.AllNames() {
				names = append(names, dnsmsg.CanonicalName(n))
			}
			out[p.ProviderID()] = append(out[p.ProviderID()], v6Hit{
				addr:     r.Target.Addr,
				port:     proto.PortKey{Transport: r.Target.Protocol.DefaultTransport(), Port: r.Target.Port},
				protocol: r.Target.Protocol,
				names:    names,
			})
		}
	}
	return out, nil
}

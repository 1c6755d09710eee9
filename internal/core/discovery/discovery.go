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
// per day, on the worker pool: the certificate search over the day's
// snapshot (the regex verdicts themselves are the scan catalog's, shared
// by all days; each certificate's names are canonicalized once), the
// day's passive-DNS sightings (the whole-period observations whose
// window overlaps the day), and the fusion of the day's sources from the
// decoded answers.
package discovery

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sort"
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

// AddrInfo aggregates what discovery learned about one address.
type AddrInfo struct {
	Sources Source
	// Names observed mapping to the address (certificate SANs, DNSDB
	// rrnames, actively resolved names).
	Names map[string]struct{}
	// Ports seen open with their protocol fingerprints (scan channels).
	Ports map[proto.PortKey]proto.Protocol
}

func newAddrInfo() *AddrInfo {
	// Names and Ports are created lazily by addName/addPort: a nil map
	// reads and ranges as empty, and many addresses only ever carry a
	// source bit, so eager maps tripled the allocation count for nothing.
	return &AddrInfo{}
}

// addName records an observed name, creating the map on first use.
func (ai *AddrInfo) addName(n string) {
	if ai.Names == nil {
		ai.Names = make(map[string]struct{}, 2)
	}
	ai.Names[n] = struct{}{}
}

// addPort records an open port, creating the map on first use.
func (ai *AddrInfo) addPort(k proto.PortKey, p proto.Protocol) {
	if ai.Ports == nil {
		ai.Ports = make(map[proto.PortKey]proto.Protocol, 2)
	}
	ai.Ports[k] = p
}

// DayResult is one provider's discovery set for one day.
type DayResult struct {
	Provider string
	Day      time.Time
	Addrs    map[netip.Addr]*AddrInfo
}

func (d *DayResult) info(a netip.Addr) *AddrInfo {
	ai, ok := d.Addrs[a]
	if !ok {
		ai = newAddrInfo()
		d.Addrs[a] = ai
	}
	return ai
}

// All returns the discovered addresses sorted.
func (d *DayResult) All() []netip.Addr { return SortedAddrs(d.Addrs) }

// SortedAddrs returns the keys of an address set in address order.
func SortedAddrs(set map[netip.Addr]*AddrInfo) []netip.Addr {
	out := make([]netip.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Result is one provider's discovery across the whole study period.
type Result struct {
	Provider string
	Days     []*DayResult
	// VPGain is the coverage gain of using all three DNS vantage points
	// versus the first (Section 3.3's ≈17%).
	VPGain float64
}

// Union merges every day's addresses with fused source tags and names.
func (r *Result) Union() map[netip.Addr]*AddrInfo {
	out := map[netip.Addr]*AddrInfo{}
	for _, d := range r.Days {
		for a, ai := range d.Addrs {
			dst, ok := out[a]
			if !ok {
				dst = newAddrInfo()
				out[a] = dst
			}
			dst.Sources |= ai.Sources
			for n := range ai.Names {
				dst.addName(n)
			}
			for k, v := range ai.Ports {
				dst.addPort(k, v)
			}
		}
	}
	return out
}

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

// dayOutput is one day's discovery for every pattern, produced by a
// worker and merged in day order.
type dayOutput struct {
	drs   []*DayResult // parallel to in.Patterns
	gains []float64    // per-pattern VP gain contribution (0 when none)
	err   error
}

// Run executes discovery for every provider pattern. Study days are
// independent given the precomputed per-pattern state, so they run on a
// bounded worker pool; results are merged in day order, making the output
// deterministic regardless of scheduling. Inputs must be safe for
// concurrent reads (the stock censys/dnsdb/world implementations are).
func Run(ctx context.Context, in Inputs) (map[string]*Result, error) {
	if len(in.Days) == 0 {
		return nil, fmt.Errorf("discovery: no study days")
	}
	if in.Zones != nil && len(in.Zones) != len(in.Days) {
		return nil, fmt.Errorf("discovery: %d zone stores for %d study days", len(in.Zones), len(in.Days))
	}
	results := map[string]*Result{}
	for _, p := range in.Patterns {
		results[p.ProviderID()] = &Result{Provider: p.ProviderID()}
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

	outs := make([]dayOutput, len(in.Days))
	// The first failing day cancels the rest of the pool, so an error on
	// day 0 of a long study does not pay for the remaining days.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	analysis.ForEach(len(in.Days), func(di int) {
		outs[di] = runDay(runCtx, in, cps, v6ByProvider, active, di)
		if outs[di].err != nil {
			cancel()
		}
	})

	// Prefer the first real failure in day order; cancellation errors in
	// other days are just the pool shutting down behind it.
	var firstCancel error
	for di := range in.Days {
		err := outs[di].err
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			if firstCancel == nil {
				firstCancel = err
			}
			continue
		}
		return nil, err
	}
	if firstCancel != nil {
		return nil, firstCancel
	}

	// Deterministic merge: day order, then pattern order — the exact
	// sequence the sequential loop produced.
	for di := range in.Days {
		for pi, p := range in.Patterns {
			res := results[p.ProviderID()]
			res.Days = append(res.Days, outs[di].drs[pi])
			res.VPGain += outs[di].gains[pi]
		}
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

// runDay performs one study day's discovery across every pattern.
func runDay(ctx context.Context, in Inputs, cps []*compiled, v6ByProvider map[string][]v6Hit, active *activeDNS, di int) dayOutput {
	day := in.Days[di]
	out := dayOutput{drs: make([]*DayResult, len(cps)), gains: make([]float64, len(cps))}
	if err := ctx.Err(); err != nil {
		out.err = err
		return out
	}
	var snap *censys.Snapshot
	if in.Censys != nil {
		var err error
		snap, err = in.Censys.Get(day)
		if err != nil {
			out.err = err
			return out
		}
	}
	// A server's endpoints share one certificate (and a certificate may
	// match several patterns): canonicalize its names once per day.
	certNames := map[*certmodel.Spec][]string{}
	for pi, cp := range cps {
		if err := ctx.Err(); err != nil {
			out.err = err
			return out
		}
		p := cp.p
		dr := &DayResult{Provider: p.ProviderID(), Day: day, Addrs: map[netip.Addr]*AddrInfo{}}

		// (1) Certificates from the IPv4 snapshots.
		if snap != nil {
			for _, rec := range snap.SearchCertsAnchored(p.Regex, p.Anchors()) {
				ai := dr.info(rec.Addr)
				ai.Sources |= SrcCert
				ai.addPort(proto.PortKey{Transport: rec.Transport, Port: rec.Port}, rec.Protocol)
				names, ok := certNames[rec.Cert]
				if !ok {
					for _, n := range rec.Cert.AllNames() {
						names = append(names, dnsmsg.CanonicalName(n))
					}
					certNames[rec.Cert] = names
				}
				for _, n := range names {
					ai.addName(n)
				}
				// Harvest co-located open ports for the protocol
				// column (the scan saw the whole endpoint).
				for _, sib := range snap.ByAddr(rec.Addr) {
					ai.addPort(proto.PortKey{Transport: sib.Transport, Port: sib.Port}, sib.Protocol)
				}
			}
		}
		// (2) Custom IPv6 scan results apply to every day.
		for _, hit := range v6ByProvider[p.ProviderID()] {
			ai := dr.info(hit.addr)
			ai.Sources |= SrcCert
			ai.addPort(hit.port, hit.protocol)
			for _, n := range hit.names {
				ai.addName(n)
			}
		}
		// (3) Passive DNS: the day's query, as a filter over the
		// whole-period one.
		tr := dnsdb.TimeRange{From: day, To: day.Add(24 * time.Hour)}
		for i := range cp.sightings {
			if o := &cp.sightings[i]; tr.Contains(o) {
				ai := dr.info(cp.sightingAddrs[i])
				ai.Sources |= SrcPDNS
				ai.addName(o.RRName)
			}
		}
		// (4) Daily active resolution from every vantage point. The
		// targets are cp.wholeNames: the day's own sightings are a subset
		// of the unbounded query by TimeRange's definition.
		if active != nil && len(cp.wholeNames) > 0 {
			slots := active.slots[di][pi]
			firstVP, allVP := 0, 0
			for vi := range in.Views {
				for ni, name := range cp.wholeNames {
					k := (vi*len(cp.wholeNames) + ni) * len(addrTypes)
					for _, t := range slots[k : k+len(addrTypes)] {
						for _, a := range active.answers[t] {
							ai := dr.info(a)
							if !ai.Sources.Has(SrcActive) {
								// First sighting by any vantage point;
								// view 0 goes first, so its share of
								// these is the single-VP baseline.
								ai.Sources |= SrcActive
								allVP++
							}
							ai.addName(name)
						}
					}
				}
				if vi == 0 {
					firstVP = allVP
				}
			}
			if firstVP > 0 {
				gain := float64(allVP)/float64(firstVP) - 1
				// Contribution to the mean daily gain.
				out.gains[pi] = gain / float64(len(in.Days))
			}
		}
		out.drs[pi] = dr
	}
	return out
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
					act.answers[t] = decodeAddrs(wq.srv.HandleWire(wire))
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

// decodeAddrs unpacks one response datagram and returns the addresses of
// a successful answer; a dropped query or a failure yields none.
func decodeAddrs(resp []byte) []netip.Addr {
	if resp == nil {
		return nil
	}
	m, err := dnsmsg.Unpack(resp)
	if err != nil || m.Header.RCode != dnsmsg.RCodeSuccess {
		return nil
	}
	var addrs []netip.Addr
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
	var targets []zgrab.Target
	for _, e := range in.Hitlist.WithIoTPorts() {
		for _, port := range e.Ports {
			var pr proto.Protocol
			switch port {
			case 443:
				pr = proto.HTTPS
			case 8883:
				pr = proto.MQTTS
			case 1883:
				pr = proto.MQTT
			case 5671:
				pr = proto.AMQPS
			default:
				continue
			}
			targets = append(targets, zgrab.Target{Addr: e.Addr, Port: port, Protocol: pr})
		}
	}
	sc := &zgrab.Scanner{Dialer: in.Fabric, Timeout: 3 * time.Second, Concurrency: 8, Seed: in.Seed}
	results := sc.Scan(ctx, targets)
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

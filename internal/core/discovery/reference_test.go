package discovery

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"testing"
	"time"

	"iotmap/internal/certmodel"
	"iotmap/internal/dnsdb"
	"iotmap/internal/dnsmsg"
	"iotmap/internal/dnszone"
	"iotmap/internal/proto"
	"iotmap/internal/vnet"
	"iotmap/internal/world"
)

// refInfo is what the reference learned about one address: the map
// form Run kept per address per day before days became columns.
type refInfo struct {
	sources Source
	names   map[string]struct{}
	ports   map[proto.PortKey]proto.Protocol
}

func (ai *refInfo) addName(n string) {
	if ai.names == nil {
		ai.names = map[string]struct{}{}
	}
	ai.names[n] = struct{}{}
}

func (ai *refInfo) addPort(k proto.PortKey, p proto.Protocol) {
	if ai.ports == nil {
		ai.ports = map[proto.PortKey]proto.Protocol{}
	}
	ai.ports[k] = p
}

// refDay is one provider's reference discovery set for one day.
type refDay map[netip.Addr]*refInfo

func (d refDay) info(a netip.Addr) *refInfo {
	ai, ok := d[a]
	if !ok {
		ai = &refInfo{}
		d[a] = ai
	}
	return ai
}

// refResult is one provider's reference discovery over the period.
type refResult struct {
	days   []refDay
	vpGain float64
}

// union merges the days the way Result.Union did before the arenas.
func (r *refResult) union() refDay {
	out := refDay{}
	for _, d := range r.days {
		for a, ai := range d {
			dst := out.info(a)
			dst.sources |= ai.sources
			for n := range ai.names {
				dst.addName(n)
			}
			for k, v := range ai.ports {
				dst.addPort(k, v)
			}
		}
	}
	return out
}

// referenceRun is discovery the way Run did it before the week was
// resolved once and before days became columns: day by day, pattern by
// pattern, into one map entry per address, every (view, name, type) of
// every day packed, handled and unpacked with no memo, the target names
// re-derived as the day's sightings plus the whole-period set, each
// certificate's names canonicalized at every endpoint. It is the oracle
// Run must equal. wireTrips counts its round trips.
func referenceRun(t *testing.T, in Inputs) (results map[string]*refResult, wireTrips int) {
	t.Helper()
	results = map[string]*refResult{}
	for _, p := range in.Patterns {
		results[p.ProviderID()] = &refResult{}
	}
	cps, err := compileAll(in)
	if err != nil {
		t.Fatal(err)
	}
	v6ByProvider, err := runV6Scan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for di, day := range in.Days {
		store := in.Zones[di]
		var srvs []*dnszone.Server
		for _, view := range in.Views {
			srvs = append(srvs, dnszone.NewLocalServer(store, view))
		}
		snap, err := in.Censys.Get(day)
		if err != nil {
			t.Fatal(err)
		}
		for _, cp := range cps {
			p := cp.p
			dr := refDay{}
			for _, rec := range snap.SearchCerts(p.Regex) {
				ai := dr.info(rec.Addr)
				ai.sources |= SrcCert
				ai.addPort(proto.PortKey{Transport: rec.Transport, Port: rec.Port}, rec.Protocol)
				for _, n := range rec.Cert.AllNames() {
					ai.addName(dnsmsg.CanonicalName(n))
				}
				for _, sib := range snap.ByAddr(rec.Addr) {
					ai.addPort(proto.PortKey{Transport: sib.Transport, Port: sib.Port}, sib.Protocol)
				}
			}
			for _, hit := range v6ByProvider[p.ProviderID()] {
				ai := dr.info(hit.addr)
				ai.sources |= SrcCert
				ai.addPort(hit.port, hit.protocol)
				for _, n := range hit.names {
					ai.addName(n)
				}
			}
			names := map[string]struct{}{}
			tr := dnsdb.TimeRange{From: day, To: day.Add(24 * time.Hour)}
			for _, o := range queryPDNS(in.PDNS, cp, tr) {
				names[o.RRName] = struct{}{}
				if a, ok := o.Addr(); ok {
					ai := dr.info(a)
					ai.sources |= SrcPDNS
					ai.addName(o.RRName)
				}
			}
			for _, n := range cp.wholeNames {
				names[n] = struct{}{}
			}
			firstVP := map[netip.Addr]struct{}{}
			allVP := map[netip.Addr]struct{}{}
			id := uint16(in.Seed + int64(di))
			for vi := range in.Views {
				for _, name := range sortedNames(names) {
					for _, typ := range []dnsmsg.Type{dnsmsg.TypeA, dnsmsg.TypeAAAA} {
						id++
						q := &dnsmsg.Message{
							Header:    dnsmsg.Header{ID: id, RecursionDesired: true},
							Questions: []dnsmsg.Question{{Name: name, Type: typ, Class: dnsmsg.ClassIN}},
						}
						wire, err := q.Pack()
						if err != nil {
							t.Fatal(err)
						}
						wireTrips++
						for _, a := range decodeAddrs(nil, srvs[vi].HandleWire(wire)) {
							ai := dr.info(a)
							ai.sources |= SrcActive
							ai.addName(name)
							allVP[a] = struct{}{}
							if vi == 0 {
								firstVP[a] = struct{}{}
							}
						}
					}
				}
			}
			res := results[p.ProviderID()]
			res.days = append(res.days, dr)
			if len(firstVP) > 0 {
				res.vpGain += (float64(len(allVP))/float64(len(firstVP)) - 1) / float64(len(in.Days))
			}
		}
	}
	return results, wireTrips
}

// matchReference fails unless got equals the reference: per provider
// and day the same address set with the same source bits, per provider
// the same union (sources, names and ports of every address) and the
// same VPGain, with IDs that are ranks in address order.
func matchReference(t *testing.T, got map[string]*Result, want map[string]*refResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d results, reference has %d", len(got), len(want))
	}
	for id, wr := range want {
		gr := got[id]
		if gr == nil || len(gr.Days) != len(wr.days) {
			t.Fatalf("%s: missing result or day count", id)
		}
		addrs := gr.Addrs()
		if !slices.IsSortedFunc(addrs, netip.Addr.Compare) || len(slices.Compact(slices.Clone(addrs))) != len(addrs) {
			t.Fatalf("%s: address IDs are not ranks in address order", id)
		}
		for di, wd := range wr.days {
			gd := gr.Days[di]
			if len(gd.IDs) != len(wd) || len(gd.Sources) != len(wd) {
				t.Fatalf("%s day %d: %d addresses (%d source tags), reference %d", id, di, len(gd.IDs), len(gd.Sources), len(wd))
			}
			for i, aid := range gd.IDs {
				if i > 0 && aid <= gd.IDs[i-1] {
					t.Fatalf("%s day %d: IDs not ascending at %d", id, di, i)
				}
				a := addrs[aid]
				if ai := wd[a]; ai == nil || ai.sources != gd.Sources[i] {
					t.Fatalf("%s day %d: %v tagged %v, reference %+v", id, di, a, gd.Sources[i], ai)
				}
			}
		}
		union := wr.union()
		if len(addrs) != len(union) {
			t.Fatalf("%s: union of %d addresses, reference %d", id, len(addrs), len(union))
		}
		for i, a := range addrs {
			aid, ai := uint32(i), union[a]
			if ai == nil || ai.sources != gr.Sources(aid) {
				t.Fatalf("%s: %v union sources %v, reference %+v", id, a, gr.Sources(aid), ai)
			}
			var names []string
			for _, nid := range gr.NameIDs(aid) {
				names = append(names, gr.Name(nid))
			}
			if !slices.IsSorted(names) || len(names) != len(ai.names) {
				t.Fatalf("%s: %v names %q, reference %d names", id, a, names, len(ai.names))
			}
			for _, n := range names {
				if _, ok := ai.names[n]; !ok {
					t.Fatalf("%s: %v carries %q, the reference does not", id, a, n)
				}
			}
			ports := gr.Ports(aid)
			if len(ports) != len(ai.ports) {
				t.Fatalf("%s: %v ports %v, reference %v", id, a, ports, ai.ports)
			}
			for _, pt := range ports {
				if p, ok := ai.ports[pt.Key]; !ok || p != pt.Protocol {
					t.Fatalf("%s: %v port %v/%v, reference %v", id, a, pt.Key, pt.Protocol, ai.ports)
				}
			}
		}
		if gr.VPGain != wr.vpGain {
			t.Fatalf("%s: VPGain %v, reference %v", id, gr.VPGain, wr.vpGain)
		}
	}
}

// TestRunMatchesUnmemoizedReference is the equivalence the once-per-week
// resolution and the dense layout rest on: Run must equal the reference
// on every day's address set and source bits, on every provider's union
// (sources, names, ports) and on every VPGain, whatever the worker count,
// over derived and over unrelated zone stores, on two seeds. Over the
// derived stores it must make exactly one wire round trip per distinct
// (view, name, type, RRset) of the week, fewer than the reference.
func TestRunMatchesUnmemoizedReference(t *testing.T) {
	var legs []referenceLeg
	for _, seed := range []int64{58, 23} {
		w, err := world.Build(world.Config{Seed: seed, Scale: 0.08})
		if err != nil {
			t.Fatal(err)
		}
		for _, stores := range []struct {
			name    string
			derived bool
			zones   []*dnszone.Store
		}{{"derived", true, w.ZoneStores()}, {"unrelated", false, unrelatedStores(w)}} {
			in := weekInputs(w, seed)
			in.Zones = stores.zones
			want, refTrips := referenceRun(t, in)
			distinct, changedAfterDay0 := distinctAnswerSets(t, in)
			if stores.derived && (changedAfterDay0 == 0 || distinct >= refTrips) {
				t.Fatalf("seed %d: %d distinct answer sets (%d new after day 0) of %d questions: nothing for the memo to do, or nothing changing",
					seed, distinct, changedAfterDay0, refTrips)
			}
			legs = append(legs, referenceLeg{fmt.Sprintf("seed=%d-%s", seed, stores.name), in, want, distinct})
		}
	}
	checkRunAgainst(t, legs)
}

// TestRunMatchesReferenceWithLiveScan runs the oracle with the custom
// IPv6 scan on, so the v6 hits' sources, names and ports meet it too.
func TestRunMatchesReferenceWithLiveScan(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 27, Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	fabric := vnet.New()
	t.Cleanup(fabric.Close)
	ca, err := certmodel.NewCA("Reference CA")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DeployServers(fabric, ca, w.V6Servers()); err != nil {
		t.Fatal(err)
	}
	in := weekInputs(w, 27)
	in.Hitlist, in.Fabric = w.BuildHitlist(0.8), fabric
	hits, err := runV6Scan(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("the IPv6 scan found nothing; the leg is vacuous")
	}
	want, _ := referenceRun(t, in)
	distinct, _ := distinctAnswerSets(t, in)
	checkRunAgainst(t, []referenceLeg{{"seed=27-live-scan", in, want, distinct}})
}

// distinctAnswerSets counts, from the stores alone, the distinct (view,
// name, type, RRset) questions of the week, the round trips Run must
// make, and how many of them first appear after day 0.
func distinctAnswerSets(t *testing.T, in Inputs) (distinct, changedAfterDay0 int) {
	t.Helper()
	cps, err := compileAll(in)
	if err != nil {
		t.Fatal(err)
	}
	type version struct {
		view, name string
		typ        dnsmsg.Type
		id         dnszone.SetID
	}
	seen := map[version]struct{}{}
	for di, store := range in.Zones {
		for _, cp := range cps {
			for _, view := range in.Views {
				for _, name := range cp.wholeNames {
					for _, typ := range addrTypes {
						id, stable := store.AnswerID(view, name, typ)
						if !stable {
							t.Fatalf("%s %v: unstable answer in a world without CNAMEs", name, typ)
						}
						v := version{view, name, typ, id}
						if _, ok := seen[v]; !ok && di > 0 {
							changedAfterDay0++
						}
						seen[v] = struct{}{}
					}
				}
			}
		}
	}
	return len(seen), changedAfterDay0
}

// referenceLeg is one set of inputs with its reference result and the
// wire round trips its week takes.
type referenceLeg struct {
	name  string
	in    Inputs
	want  map[string]*refResult
	trips int
}

// checkRunAgainst runs Run on every leg at one and at four workers and
// holds it to the leg's reference, and the week's resolution to the
// leg's wire round trips.
func checkRunAgainst(t *testing.T, legs []referenceLeg) {
	t.Helper()
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, leg := range legs {
				t.Run(leg.name, func(t *testing.T) {
					got, err := Run(context.Background(), leg.in)
					if err != nil {
						t.Fatal(err)
					}
					matchReference(t, got, leg.want)
					cps, err := compileAll(leg.in)
					if err != nil {
						t.Fatal(err)
					}
					act, err := resolveWeek(context.Background(), leg.in, cps)
					if err != nil {
						t.Fatal(err)
					}
					if n := int(act.roundTrips.Load()); n != leg.trips || n != len(act.answers) {
						t.Fatalf("%d wire round trips for %d planned queries and %d distinct answer sets", n, len(act.answers), leg.trips)
					}
				})
			}
		})
	}
}

package discovery

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"

	"iotmap/internal/dnsdb"
	"iotmap/internal/dnsmsg"
	"iotmap/internal/dnszone"
	"iotmap/internal/proto"
	"iotmap/internal/world"
)

// referenceRun is discovery the way Run did it before the week was
// resolved once: day by day, pattern by pattern, every (view, name,
// type) of every day packed, handled and unpacked with no memo, the
// target names re-derived as the day's sightings plus the whole-period
// set. It is the oracle Run must equal. wireTrips counts its round
// trips.
func referenceRun(t *testing.T, in Inputs) (results map[string]*Result, wireTrips int) {
	t.Helper()
	results = map[string]*Result{}
	for _, p := range in.Patterns {
		results[p.ProviderID()] = &Result{Provider: p.ProviderID()}
	}
	cps, err := compileAll(in)
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
			dr := &DayResult{Provider: p.ProviderID(), Day: day, Addrs: map[netip.Addr]*AddrInfo{}}
			for _, rec := range snap.SearchCerts(p.Regex) {
				ai := dr.info(rec.Addr)
				ai.Sources |= SrcCert
				ai.addPort(proto.PortKey{Transport: rec.Transport, Port: rec.Port}, rec.Protocol)
				for _, n := range rec.Cert.AllNames() {
					ai.addName(dnsmsg.CanonicalName(n))
				}
				for _, sib := range snap.ByAddr(rec.Addr) {
					ai.addPort(proto.PortKey{Transport: sib.Transport, Port: sib.Port}, sib.Protocol)
				}
			}
			names := map[string]struct{}{}
			tr := dnsdb.TimeRange{From: day, To: day.Add(24 * time.Hour)}
			for _, o := range queryPDNS(in.PDNS, cp, tr) {
				names[o.RRName] = struct{}{}
				if a, ok := o.Addr(); ok {
					ai := dr.info(a)
					ai.Sources |= SrcPDNS
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
						for _, a := range decodeAddrs(srvs[vi].HandleWire(wire)) {
							ai := dr.info(a)
							ai.Sources |= SrcActive
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
			res.Days = append(res.Days, dr)
			if len(firstVP) > 0 {
				res.VPGain += (float64(len(allVP))/float64(len(firstVP)) - 1) / float64(len(in.Days))
			}
		}
	}
	return results, wireTrips
}

// TestRunMatchesUnmemoizedReference is the equivalence the once-per-week
// resolution rests on: Run over the derived zone stores must equal the
// reference on every DayResult and every VPGain, whatever the worker
// count, and must make exactly one wire round trip per distinct (view,
// name, type, RRset) of the week.
func TestRunMatchesUnmemoizedReference(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 58, Scale: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	in := weekInputs(w, 58)
	want, refTrips := referenceRun(t, in)

	// The distinct answer sets of the week, counted from the stores.
	cps, err := compileAll(in)
	if err != nil {
		t.Fatal(err)
	}
	type version struct {
		view, name string
		typ        dnsmsg.Type
		id         dnszone.SetID
	}
	distinct := map[version]struct{}{}
	changedAfterDay0 := 0
	for di := range in.Days {
		store := in.Zones[di]
		for _, cp := range cps {
			for _, view := range in.Views {
				for _, name := range cp.wholeNames {
					for _, typ := range addrTypes {
						id, stable := store.AnswerID(view, name, typ)
						if !stable {
							t.Fatalf("%s %v: unstable answer in a world without CNAMEs", name, typ)
						}
						v := version{view, name, typ, id}
						if _, seen := distinct[v]; !seen && di > 0 {
							changedAfterDay0++
						}
						distinct[v] = struct{}{}
					}
				}
			}
		}
	}
	if changedAfterDay0 == 0 || len(distinct) >= refTrips {
		t.Fatalf("%d distinct answer sets (%d new after day 0) of %d questions: nothing for the memo to do, or nothing changing",
			len(distinct), changedAfterDay0, refTrips)
	}

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got, err := Run(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			for id, wr := range want {
				gr := got[id]
				if gr == nil || len(gr.Days) != len(wr.Days) {
					t.Fatalf("%s: missing result or day count", id)
				}
				for di := range wr.Days {
					if !reflect.DeepEqual(gr.Days[di], wr.Days[di]) {
						t.Fatalf("%s day %d: DayResult differs from the reference (%d vs %d addresses)",
							id, di, len(gr.Days[di].Addrs), len(wr.Days[di].Addrs))
					}
				}
				if gr.VPGain != wr.VPGain {
					t.Fatalf("%s: VPGain %v, reference %v", id, gr.VPGain, wr.VPGain)
				}
			}
			act, err := resolveWeek(context.Background(), in, cps)
			if err != nil {
				t.Fatal(err)
			}
			if trips := int(act.roundTrips.Load()); trips != len(distinct) || trips != len(act.answers) {
				t.Fatalf("%d wire round trips for %d planned queries and %d distinct answer sets", trips, len(act.answers), len(distinct))
			}
		})
	}
}

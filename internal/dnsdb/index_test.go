package dnsdb

import (
	"fmt"
	"net/netip"
	"reflect"
	"regexp"
	"testing"
	"time"

	"iotmap/internal/core/patterns"
	"iotmap/internal/dnsmsg"
	"iotmap/internal/simrand"
)

// randomDB seeds a database with names mixing real provider namespaces
// (from the pattern table), lookalikes, and noise, across random types
// and sighting times.
func randomDB(seed int64, n int) *DB {
	rng := simrand.New(seed)
	docs := patterns.Docs()
	db := New()
	for i := 0; i < n; i++ {
		d := docs[rng.Intn(len(docs))]
		var name string
		switch rng.Intn(5) {
		case 0:
			name = fmt.Sprintf("dev%d.iot.%s", rng.Intn(500), d.SLD)
		case 1:
			if len(d.FixedFQDNs) > 0 {
				name = d.FixedFQDNs[rng.Intn(len(d.FixedFQDNs))]
			} else {
				name = d.SLD
			}
		case 2:
			name = fmt.Sprintf("dev%d.iot.not-%s", rng.Intn(500), d.SLD)
		case 3:
			name = fmt.Sprintf("Dev%d.IoT-MQTTS.cn-1.%s", rng.Intn(500), d.SLD)
		default:
			name = fmt.Sprintf("host%d.example%d.org", rng.Intn(500), rng.Intn(40))
		}
		at := t0.Add(time.Duration(rng.Intn(7*24)) * time.Hour)
		if rng.Bool(0.7) {
			addr := netip.AddrFrom4([4]byte{52, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(250))})
			recordAddr(db, name, addr, at)
		} else {
			db.Record(name, dnsmsg.TypeCNAME, fmt.Sprintf("t%d.example.net.", rng.Intn(100)), at)
		}
	}
	return db
}

// flexibleSearchNaive is the reference full scan the indexed path must
// reproduce byte-for-byte.
func (db *DB) flexibleSearchNaive(re *regexp.Regexp, typ RRType, tr TimeRange) []Observation {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Observation
	for name, list := range db.byName {
		if !re.MatchString(name) {
			continue
		}
		for _, o := range list {
			if typ != 0 && o.RRType != typ {
				continue
			}
			if !tr.Contains(o) {
				continue
			}
			out = append(out, *o)
		}
	}
	sortObs(out)
	return out
}

// TestFlexibleSearchQueryEquivalence: for random databases and every real
// provider pattern, the anchored precompiled query returns exactly what
// the naive full scan returns, across type and time filters.
func TestFlexibleSearchQueryEquivalence(t *testing.T) {
	pats := patterns.All()
	ranges := []TimeRange{{}, {From: t0.Add(24 * time.Hour)}, {To: t0.Add(48 * time.Hour)}}
	for seed := int64(1); seed <= 8; seed++ {
		db := randomDB(seed, 500)
		for _, p := range pats {
			q, err := CompileQuery(p.Regex.String(), p.Anchors()...)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range ranges {
				for _, typ := range []RRType{0, dnsmsg.TypeA} {
					naive := db.flexibleSearchNaive(p.Regex, typ, tr)
					indexed := db.FlexibleSearchQuery(q, typ, tr)
					if !reflect.DeepEqual(naive, indexed) {
						t.Fatalf("seed %d provider %s typ %v: indexed flexible search diverged: naive %d, indexed %d",
							seed, p.ProviderID(), typ, len(naive), len(indexed))
					}
				}
			}
		}
	}
}

// basicSearchNaive is the pre-index Basic Search: a full scan with exact
// or left-hand-wildcard matching.
func (db *DB) basicSearchNaive(name string, typ RRType, tr TimeRange) []Observation {
	name = dnsmsg.CanonicalName(name)
	db.mu.RLock()
	defer db.mu.RUnlock()
	match := func(candidate string) bool { return candidate == name }
	if len(name) > 2 && name[0] == '*' && name[1] == '.' {
		suffix := name[1:]
		match = func(candidate string) bool {
			return len(candidate) > len(suffix) && candidate[len(candidate)-len(suffix):] == suffix
		}
	}
	var out []Observation
	for n, list := range db.byName {
		if !match(n) {
			continue
		}
		for _, o := range list {
			if typ != 0 && o.RRType != typ {
				continue
			}
			if !tr.Contains(o) {
				continue
			}
			out = append(out, *o)
		}
	}
	sortObs(out)
	return out
}

// TestBasicSearchIndexedEquivalence: exact names, deep wildcards (bucket
// path), and TLD-level wildcards (full-scan path) all match the naive
// reference.
func TestBasicSearchIndexedEquivalence(t *testing.T) {
	queries := []string{
		"mqtt.googleapis.com",
		"dev1.iot.amazonaws.com",
		"absent.example.net",
		"*.amazonaws.com",
		"*.iot.amazonaws.com",
		"*.myhuaweicloud.com",
		"*.org",
		"*.com",
	}
	for seed := int64(1); seed <= 6; seed++ {
		db := randomDB(seed, 500)
		for _, qn := range queries {
			for _, tr := range []TimeRange{{}, {From: t0.Add(24 * time.Hour)}} {
				naive := db.basicSearchNaive(qn, 0, tr)
				indexed := db.BasicSearch(qn, 0, tr)
				if !reflect.DeepEqual(naive, indexed) {
					t.Fatalf("seed %d query %q: indexed basic search diverged: naive %d, indexed %d",
						seed, qn, len(naive), len(indexed))
				}
			}
		}
	}
}

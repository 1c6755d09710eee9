// Package dnsdb implements the passive-DNS substrate standing in for
// Farsight DNSDB (Section 3.3). It stores aggregated observations of DNS
// answers seen by a sensor network and supports the two query APIs the
// paper's Appendix A uses: Flexible Search (regular expressions) and Basic
// Search (left-hand wildcards), both with time-range filters.
//
// Like the real DNSDB, coverage is partial: the sensor network only
// witnesses a fraction of global resolutions (a documented limitation in
// Section 3.6), which the feeding code models by probabilistically
// skipping observations.
package dnsdb

import (
	"fmt"
	"net/netip"
	"regexp"
	"sort"
	"sync"
	"time"

	"iotmap/internal/dnsmsg"
)

// RRType mirrors the record types the study queries.
type RRType = dnsmsg.Type

// Observation is one aggregated (rrname, rrtype, rdata) tuple with its
// sighting window, the unit DNSDB returns.
type Observation struct {
	RRName    string
	RRType    RRType
	RData     string
	FirstSeen time.Time
	LastSeen  time.Time
	Count     int
}

// Addr parses the RData as an IP address; ok is false for non-address
// records (CNAME targets etc.).
func (o Observation) Addr() (netip.Addr, bool) {
	a, err := netip.ParseAddr(o.RData)
	return a, err == nil
}

type obsKey struct {
	name  string
	typ   RRType
	rdata string
}

// DB is the passive DNS database. Safe for concurrent use.
type DB struct {
	mu  sync.RWMutex
	obs map[obsKey]*Observation
	// byName accelerates rdata lookups per owner name.
	byName map[string][]*Observation
	// bySuffix buckets owner names by registered domain (last two
	// labels), so anchored Flexible Search and wildcard Basic Search scan
	// one provider's namespace instead of the whole sensor corpus.
	bySuffix map[string][]string
	// byRData indexes observations by rdata string, the reverse index
	// behind the shared-vs-dedicated IP analysis (Section 3.4).
	byRData map[string][]*Observation
}

// New returns an empty database.
func New() *DB {
	return &DB{
		obs:      map[obsKey]*Observation{},
		byName:   map[string][]*Observation{},
		bySuffix: map[string][]string{},
		byRData:  map[string][]*Observation{},
	}
}

// Record registers a sighting of name→rdata at time t. Counts and the
// sighting window aggregate over repeated calls, like a passive sensor
// dedupe stage.
func (db *DB) Record(name string, typ RRType, rdata string, t time.Time) {
	name = dnsmsg.CanonicalName(name)
	k := obsKey{name: name, typ: typ, rdata: rdata}
	db.mu.Lock()
	defer db.mu.Unlock()
	if o, ok := db.obs[k]; ok {
		if t.Before(o.FirstSeen) {
			o.FirstSeen = t
		}
		if t.After(o.LastSeen) {
			o.LastSeen = t
		}
		o.Count++
		return
	}
	o := &Observation{RRName: name, RRType: typ, RData: rdata, FirstSeen: t, LastSeen: t, Count: 1}
	db.obs[k] = o
	if _, seen := db.byName[name]; !seen {
		rd := dnsmsg.RegisteredDomain(name)
		db.bySuffix[rd] = append(db.bySuffix[rd], name)
	}
	db.byName[name] = append(db.byName[name], o)
	db.byRData[rdata] = append(db.byRData[rdata], o)
}

// RecordAddr is Record for address rdata.
func (db *DB) RecordAddr(name string, addr netip.Addr, t time.Time) {
	typ := dnsmsg.TypeAAAA
	if addr.Unmap().Is4() {
		typ = dnsmsg.TypeA
		addr = addr.Unmap()
	}
	db.Record(name, typ, addr.String(), t)
}

// Size returns the number of stored observations.
func (db *DB) Size() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.obs)
}

// TimeRange restricts queries to observations whose sighting window
// overlaps [From, To]. Zero values disable the corresponding bound,
// matching DNSDB's time_first_after / time_last_before parameters.
type TimeRange struct {
	From time.Time
	To   time.Time
}

// Contains reports whether the observation's window overlaps the range.
func (tr TimeRange) Contains(o *Observation) bool {
	if !tr.From.IsZero() && o.LastSeen.Before(tr.From) {
		return false
	}
	if !tr.To.IsZero() && o.FirstSeen.After(tr.To) {
		return false
	}
	return true
}

// Query is a precompiled Flexible Search handle: the compiled regular
// expression plus the registered-domain anchors that bound its matches.
// Compiling once and reusing the handle keeps regexp.Compile out of the
// per-day discovery loop.
type Query struct {
	re      *regexp.Regexp
	anchors []string
}

// CompileQuery compiles pattern into a reusable Query. anchors, when
// given, are canonical registered-domain suffixes (trailing-dot form, see
// dnsmsg.RegisteredDomain) that every matching rrname is guaranteed to end
// with — the literal anchors patterns.Pattern.Anchors exposes. With no
// anchors the query scans every stored name.
func CompileQuery(pattern string, anchors ...string) (*Query, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("dnsdb: bad pattern: %w", err)
	}
	return &Query{re: re, anchors: anchors}, nil
}

// String returns the query's regular expression source.
func (q *Query) String() string { return q.re.String() }

// FlexibleSearchQuery runs a precompiled query. Anchored queries scan only
// the names bucketed under the anchor registered domains; since an
// anchored regex cannot match a name outside its anchor buckets, the
// result is identical to the full scan.
func (db *DB) FlexibleSearchQuery(q *Query, typ RRType, tr TimeRange) []Observation {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Observation
	collect := func(name string) {
		if !q.re.MatchString(name) {
			return
		}
		for _, o := range db.byName[name] {
			if typ != 0 && o.RRType != typ {
				continue
			}
			if !tr.Contains(o) {
				continue
			}
			out = append(out, *o)
		}
	}
	if len(q.anchors) > 0 {
		for _, a := range q.anchors {
			for _, name := range db.bySuffix[a] {
				collect(name)
			}
		}
	} else {
		for name := range db.byName {
			collect(name)
		}
	}
	sortObs(out)
	return out
}

// BasicSearch implements the Basic Search rrset/name API: an exact name
// or a left-hand wildcard label ("*.tencentdevices.com."). Exact names
// are a direct index hit; wildcard lookups scan only the suffix bucket of
// the wildcard's registered domain when it has one.
func (db *DB) BasicSearch(name string, typ RRType, tr TimeRange) []Observation {
	name = dnsmsg.CanonicalName(name)
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Observation
	collect := func(n string) {
		for _, o := range db.byName[n] {
			if typ != 0 && o.RRType != typ {
				continue
			}
			if !tr.Contains(o) {
				continue
			}
			out = append(out, *o)
		}
	}
	if len(name) > 2 && name[0] == '*' && name[1] == '.' {
		suffix := name[1:] // keep leading dot: "*.x.com." matches "a.x.com." but not "x.com."
		match := func(candidate string) bool {
			return len(candidate) > len(suffix) && candidate[len(candidate)-len(suffix):] == suffix
		}
		// Any name ending in ".x.com." shares x.com's registered domain,
		// so the bucket holds every possible match — unless the wildcard
		// is directly under a TLD, where matches span many buckets.
		rd := dnsmsg.RegisteredDomain(name[2:])
		if dnsmsg.Bucketable(rd) {
			for _, n := range db.bySuffix[rd] {
				if match(n) {
					collect(n)
				}
			}
		} else {
			for n := range db.byName {
				if match(n) {
					collect(n)
				}
			}
		}
	} else {
		collect(name)
	}
	sortObs(out)
	return out
}

// NamesForAddr returns every rrname observed resolving to addr inside the
// time range — the reverse lookup that powers the shared-vs-dedicated IP
// classification (Section 3.4: "we use DNSDB to identify all the domain
// names that resolve to that particular IP").
func (db *DB) NamesForAddr(addr netip.Addr, tr TimeRange) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seen := map[string]struct{}{}
	for _, o := range db.byRData[addr.String()] {
		if !tr.Contains(o) {
			continue
		}
		seen[o.RRName] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Addrs extracts the unique addresses from a result set.
func Addrs(obs []Observation) []netip.Addr {
	seen := map[netip.Addr]struct{}{}
	var out []netip.Addr
	for _, o := range obs {
		if a, ok := o.Addr(); ok {
			if _, dup := seen[a]; !dup {
				seen[a] = struct{}{}
				out = append(out, a)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Names extracts the unique rrnames from a result set.
func Names(obs []Observation) []string {
	seen := map[string]struct{}{}
	var out []string
	for _, o := range obs {
		if _, dup := seen[o.RRName]; !dup {
			seen[o.RRName] = struct{}{}
			out = append(out, o.RRName)
		}
	}
	sort.Strings(out)
	return out
}

func sortObs(out []Observation) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].RRName != out[j].RRName {
			return out[i].RRName < out[j].RRName
		}
		if out[i].RRType != out[j].RRType {
			return out[i].RRType < out[j].RRType
		}
		return out[i].RData < out[j].RData
	})
}

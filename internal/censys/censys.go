// Package censys models the Internet-wide IPv4 scan dataset the
// methodology consumes (Section 3.3): daily snapshots of per-endpoint
// scan records with TLS certificate metadata and scan-provider
// geolocation, plus the certificate search the pipeline runs its domain
// regexes through.
//
// Records carry exactly what an IPv4-wide zmap+zgrab pass would have
// produced against the synthetic world: endpoints whose TLS policy
// prevents certificate collection (SNI-required, client-cert-required)
// appear with a nil Cert, and plaintext services carry banners only.
//
// Computed once per study period, in the Catalog: the (Addr, Port) order
// of every record, the per-address ranges, each certificate's match
// candidates and registered-domain buckets, and the regex verdict of every
// (pattern, record) pair a search asks for. Computed per day, in the
// Snapshot: which catalog records the day contains, and whether a matched
// certificate is valid on the day's date.
package censys

import (
	"fmt"
	"net/netip"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"iotmap/internal/certmodel"
	"iotmap/internal/dnsmsg"
	"iotmap/internal/geo"
	"iotmap/internal/proto"
)

// Record is one (address, port) scan observation.
type Record struct {
	Addr      netip.Addr
	Port      uint16
	Transport proto.Transport
	Protocol  proto.Protocol
	// Cert is nil when no certificate could be collected.
	Cert *certmodel.Spec
	// Banner is the protocol fingerprint, when any.
	Banner string
	// Location is the scan provider's geolocation opinion — imperfect,
	// one of the majority-vote inputs (Section 4.2).
	Location geo.Location
}

// recRange is a [start, end) span of indices into Catalog.records.
// Records are sorted by (Addr, Port), so one address's records are
// always contiguous — a range costs one map value per address instead
// of a growing index slice per record.
type recRange struct{ start, end int32 }

// Catalog holds every scan record of a study period and everything about
// them that does not depend on the day: the (Addr, Port) order, the
// per-address ranges, each certificate's regex match candidates, the
// registered-domain buckets behind SearchCertsAnchored, and, filled on
// first use, which records each searched pattern matches. A day's
// Snapshot is a subset view over it.
type Catalog struct {
	records []Record
	byAddr  map[netip.Addr]recRange
	// certNames caches each record's regex match candidates (trailing-dot,
	// wildcard-expanded); nil for cert-less records.
	certNames [][]string
	// byDomain buckets cert-bearing record indices by the registered
	// domain of each match candidate. Index lists are ascending and
	// deduplicated.
	byDomain map[string][]int32

	// matches memoizes the anchored search's regex verdicts. Snapshots of
	// one catalog are searched from concurrent workers, so the table is
	// locked and each entry is filled under its own Once.
	mu      sync.Mutex
	matches map[matchKey]*matchEntry
}

// matchKey names one anchored search: the compiled pattern and the
// anchor buckets that bound its candidates.
type matchKey struct {
	re      *regexp.Regexp
	anchors string
}

type matchEntry struct {
	once sync.Once
	// idx lists, ascending, the catalog records with a certificate name
	// matching the pattern.
	idx []int32
}

// NewCatalog indexes records, sorting a copy by (Addr, Port).
func NewCatalog(records []Record) *Catalog {
	c := &Catalog{
		records: append([]Record(nil), records...),
		byAddr:  make(map[netip.Addr]recRange),
		matches: map[matchKey]*matchEntry{},
	}
	sort.Slice(c.records, func(i, j int) bool {
		a, b := &c.records[i], &c.records[j]
		if a.Addr != b.Addr {
			return a.Addr.Less(b.Addr)
		}
		return a.Port < b.Port
	})
	c.certNames = make([][]string, len(c.records))
	c.byDomain = make(map[string][]int32)
	// Endpoints of one server present the same certificate; index its
	// names once.
	var lastCert *certmodel.Spec
	var lastNames []string
	for i := range c.records {
		r := &c.records[i]
		if rr, ok := c.byAddr[r.Addr]; ok {
			rr.end = int32(i + 1)
			c.byAddr[r.Addr] = rr
		} else {
			c.byAddr[r.Addr] = recRange{start: int32(i), end: int32(i + 1)}
		}
		if r.Cert == nil {
			continue
		}
		if r.Cert != lastCert {
			lastCert, lastNames = r.Cert, r.Cert.MatchCandidates()
		}
		c.certNames[i] = lastNames
		for _, n := range lastNames {
			rd := dnsmsg.RegisteredDomain(n)
			bucket := c.byDomain[rd]
			if len(bucket) == 0 || bucket[len(bucket)-1] != int32(i) {
				c.byDomain[rd] = append(bucket, int32(i))
			}
		}
	}
	return c
}

// Records returns every record of the period in (Addr, Port) order
// (shared slice; callers must not mutate). Snapshot's active predicate
// indexes this slice.
func (c *Catalog) Records() []Record { return c.records }

// Snapshot returns the scan result set of one day: the catalog records
// for which active reports true, in catalog order. A nil active selects
// every record.
func (c *Catalog) Snapshot(date time.Time, active func(i int) bool) *Snapshot {
	s := &Snapshot{Date: date, cat: c, n: len(c.records)}
	if active == nil {
		return s
	}
	s.active = make([]bool, len(c.records))
	s.n = 0
	for i := range s.active {
		if active(i) {
			s.active[i] = true
			s.n++
		}
	}
	return s
}

// matching returns the catalog records whose certificate names match re,
// looking only inside the anchor buckets. The verdict of a (pattern,
// record) pair does not depend on the day, so it is computed once per
// catalog and shared by every snapshot.
func (c *Catalog) matching(re *regexp.Regexp, anchors []string) []int32 {
	key := matchKey{re: re, anchors: strings.Join(anchors, " ")}
	c.mu.Lock()
	e := c.matches[key]
	if e == nil {
		e = &matchEntry{}
		c.matches[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		var cand []int32
		if len(anchors) == 1 {
			cand = c.byDomain[anchors[0]]
		} else {
			seen := map[int32]struct{}{}
			for _, a := range anchors {
				for _, i := range c.byDomain[a] {
					if _, dup := seen[i]; !dup {
						seen[i] = struct{}{}
						cand = append(cand, i)
					}
				}
			}
			sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
		}
		for _, i := range cand {
			for _, n := range c.certNames[i] {
				if re.MatchString(n) {
					e.idx = append(e.idx, i)
					break
				}
			}
		}
	})
	return e.idx
}

// Snapshot is one daily scan result set: a subset view of a Catalog.
type Snapshot struct {
	Date time.Time
	cat  *Catalog
	// active marks the catalog records the day contains; nil means all.
	active []bool
	n      int
}

func (s *Snapshot) has(i int32) bool { return s.active == nil || s.active[i] }

// Records returns all records in (Addr, Port) order (callers must not
// mutate: a snapshot holding the whole catalog returns the shared slice,
// a day subset builds a fresh one per call).
func (s *Snapshot) Records() []Record {
	if s.active == nil {
		return s.cat.records
	}
	out := make([]Record, 0, s.n)
	for i := range s.cat.records {
		if s.active[i] {
			out = append(out, s.cat.records[i])
		}
	}
	return out
}

// ByAddr returns the records for one address (shared slice; callers
// must not mutate).
func (s *Snapshot) ByAddr(a netip.Addr) []Record {
	rr, ok := s.cat.byAddr[a]
	if !ok {
		return nil
	}
	all := s.cat.records[rr.start:rr.end]
	if s.active == nil {
		return all
	}
	n := 0
	for i := rr.start; i < rr.end; i++ {
		if s.active[i] {
			n++
		}
	}
	switch n {
	case 0:
		return nil
	case len(all):
		// The usual case: the endpoints of one address come and go
		// together.
		return all
	}
	out := make([]Record, 0, n)
	for i := rr.start; i < rr.end; i++ {
		if s.active[i] {
			out = append(out, s.cat.records[i])
		}
	}
	return out
}

// SearchCerts returns records whose certificate names match re and whose
// certificate is valid on the snapshot date — the paper only uses
// certificates "valid during the study period". This is the reference
// full-scan path; SearchCertsAnchored returns identical results faster
// when the pattern carries literal anchors.
func (s *Snapshot) SearchCerts(re *regexp.Regexp) []Record {
	var out []Record
	for i := range s.cat.records {
		r := &s.cat.records[i]
		if !s.has(int32(i)) || r.Cert == nil {
			continue
		}
		if !r.Cert.ValidAt(s.Date) {
			continue
		}
		if r.Cert.MatchesRegexp(re) {
			out = append(out, *r)
		}
	}
	return out
}

// SearchCertsAnchored is SearchCerts restricted to the records whose
// certificate carries a name under one of the anchor registered domains
// (patterns.Pattern.Anchors). Because an anchored regex can only match
// names ending in its literal suffix, pruning to the anchor buckets never
// drops a match and the result is byte-identical to SearchCerts(re). An
// empty anchor list falls back to the full scan. The regex runs once per
// catalog record, whichever day asks first; only membership in the day
// and certificate validity on its date are checked per snapshot.
func (s *Snapshot) SearchCertsAnchored(re *regexp.Regexp, anchors []string) []Record {
	if len(anchors) == 0 {
		return s.SearchCerts(re)
	}
	matched := s.cat.matching(re, anchors)
	var out []Record
	for _, i := range matched {
		r := &s.cat.records[i]
		if s.has(i) && r.Cert.ValidAt(s.Date) {
			if out == nil {
				// Most matches are up on most days: one allocation, not a
				// doubling series of 120-byte-record copies.
				out = make([]Record, 0, len(matched))
			}
			out = append(out, *r)
		}
	}
	return out
}

// Service stores the daily snapshots of a study period, keyed by UTC day.
type Service struct {
	snaps map[string]*Snapshot
}

// NewService returns an empty snapshot store.
func NewService() *Service { return &Service{snaps: map[string]*Snapshot{}} }

func dayKey(t time.Time) string { return t.UTC().Format("2006-01-02") }

// Put stores a snapshot under its date.
func (sv *Service) Put(s *Snapshot) { sv.snaps[dayKey(s.Date)] = s }

// Get fetches the snapshot for a day.
func (sv *Service) Get(day time.Time) (*Snapshot, error) {
	s, ok := sv.snaps[dayKey(day)]
	if !ok {
		return nil, fmt.Errorf("censys: no snapshot for %s", dayKey(day))
	}
	return s, nil
}

// Package dnszone implements an in-memory authoritative DNS server for the
// synthetic Internet. Provider zones (Section 3.2's
// <subdomain>.<region>.<second-level-domain> namespaces) are loaded into a
// Store; a Server answers RFC 1035 query datagrams.
//
// The store is view-aware: providers that steer clients by resolver
// location (geo-DNS) publish different answer sets per view. The paper
// exploits exactly this by resolving from three vantage points, which
// "increases our IP address coverage by ≈ 17%" (Section 3.3); one Server
// per vantage point reproduces that setup.
package dnszone

import (
	"maps"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"

	"iotmap/internal/dnsmsg"
)

// DefaultView is the answer set used when a name has no view-specific
// records for the requested view.
const DefaultView = ""

// rrsetKey identifies one RRset within a view.
type rrsetKey struct {
	name string
	typ  dnsmsg.Type
}

// rrset is one stored RRset. It is immutable once a store holds it —
// every change installs a new one — so Derive can share it between
// stores, and its address is its identity (SetID).
type rrset struct{ rrs []dnsmsg.RR }

// SetID identifies an RRset across a family of derived stores: two
// stores answering a question from sets with equal SetIDs give the same
// answer. The zero SetID means "no such set". IDs are comparable and
// only meaningful between stores related through Derive.
type SetID struct{ set *rrset }

// Store holds authoritative data. It is safe for concurrent use: reads
// dominate once the world is built.
type Store struct {
	mu sync.RWMutex
	// views maps view name -> rrset key -> records.
	views map[string]map[rrsetKey]*rrset
	// names tracks which canonical names exist in any view/type, for the
	// NXDOMAIN vs NODATA distinction.
	names map[string]struct{}
	// apexes are zone apex names with SOA records, longest-suffix matched
	// to decide authority.
	apexes map[string]dnsmsg.SOAData
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		views:  map[string]map[rrsetKey]*rrset{},
		names:  map[string]struct{}{},
		apexes: map[string]dnsmsg.SOAData{},
	}
}

// Derive returns a store with the same content that shares every RRset
// with s, SetIDs included. Changing either store afterwards leaves the
// other untouched: a day's zone is its predecessor plus the day's churn.
func (s *Store) Derive() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := &Store{
		views:  make(map[string]map[rrsetKey]*rrset, len(s.views)),
		names:  maps.Clone(s.names),
		apexes: maps.Clone(s.apexes),
	}
	for view, vm := range s.views {
		d.views[view] = maps.Clone(vm)
	}
	return d
}

// AddZone declares an authoritative apex with its SOA.
func (s *Store) AddZone(apex string, soa dnsmsg.SOAData) {
	s.mu.Lock()
	defer s.mu.Unlock()
	apex = dnsmsg.CanonicalName(apex)
	s.apexes[apex] = soa
	s.names[apex] = struct{}{}
}

// AddAddr registers an A or AAAA record (chosen by address family) for
// name under view.
func (s *Store) AddAddr(view, name string, addr netip.Addr, ttl uint32) {
	typ := dnsmsg.TypeAAAA
	if addr.Unmap().Is4() {
		typ = dnsmsg.TypeA
		addr = addr.Unmap()
	}
	s.AddRR(view, dnsmsg.RR{
		Name: name, Type: typ, Class: dnsmsg.ClassIN, TTL: ttl, Addr: addr,
	})
}

// AddRR registers an arbitrary record under view.
func (s *Store) AddRR(view string, rr dnsmsg.RR) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rr.Name = dnsmsg.CanonicalName(rr.Name)
	if rr.Class == 0 {
		rr.Class = dnsmsg.ClassIN
	}
	vm := s.viewLocked(view)
	k := rrsetKey{name: rr.Name, typ: rr.Type}
	var old []dnsmsg.RR
	if set := vm[k]; set != nil {
		old = set.rrs
	}
	// A grown copy, never an append in place: a derived store may share
	// the old set.
	vm[k] = &rrset{rrs: append(old[:len(old):len(old)], rr)}
	s.names[rr.Name] = struct{}{}
}

func (s *Store) viewLocked(view string) map[rrsetKey]*rrset {
	vm, ok := s.views[view]
	if !ok {
		vm = map[rrsetKey]*rrset{}
		s.views[view] = vm
	}
	return vm
}

// SetAddrs makes addrs, in order, the whole A and AAAA answer of name
// under view (split by address family), replacing what the view held for
// the name. It is AddAddr for a complete answer set: one new RRset per
// family instead of one per address, and a family whose records come out
// as they already were keeps its set and SetID.
func (s *Store) SetAddrs(view, name string, addrs []netip.Addr, ttl uint32) {
	name = dnsmsg.CanonicalName(name)
	var v4, v6 []dnsmsg.RR
	for _, a := range addrs {
		rr := dnsmsg.RR{Name: name, Class: dnsmsg.ClassIN, TTL: ttl}
		if u := a.Unmap(); u.Is4() {
			rr.Type, rr.Addr = dnsmsg.TypeA, u
			v4 = append(v4, rr)
		} else {
			rr.Type, rr.Addr = dnsmsg.TypeAAAA, a
			v6 = append(v6, rr)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	vm := s.viewLocked(view)
	for _, fam := range []struct {
		typ dnsmsg.Type
		rrs []dnsmsg.RR
	}{{dnsmsg.TypeA, v4}, {dnsmsg.TypeAAAA, v6}} {
		k := rrsetKey{name: name, typ: fam.typ}
		if len(fam.rrs) == 0 {
			delete(vm, k)
			continue
		}
		if old := vm[k]; old == nil || !slices.EqualFunc(old.rrs, fam.rrs, sameAddrRR) {
			vm[k] = &rrset{rrs: fam.rrs}
		}
	}
	if len(addrs) > 0 {
		s.names[name] = struct{}{}
	}
}

// sameAddrRR compares two address records of one RRset (same owner, type
// and class by construction).
func sameAddrRR(a, b dnsmsg.RR) bool { return a.Addr == b.Addr && a.TTL == b.TTL }

// RemoveName deletes every record for name in every view; used by the
// churn model when backends are decommissioned.
func (s *Store) RemoveName(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	name = dnsmsg.CanonicalName(name)
	for _, vm := range s.views {
		for k := range vm {
			if k.name == name {
				delete(vm, k)
			}
		}
	}
	delete(s.names, name)
}

// Names returns every registered owner name, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.names))
	for n := range s.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Authority returns the closest enclosing zone apex for name, if any.
func (s *Store) Authority(name string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := dnsmsg.CanonicalName(name)
	for n != "." {
		if _, ok := s.apexes[n]; ok {
			return n, true
		}
		i := strings.Index(n, ".")
		if i < 0 || i == len(n)-1 {
			break
		}
		n = n[i+1:]
	}
	return "", false
}

// Lookup resolves a question under view, following CNAME chains inside
// the store (up to 8 hops, as resolvers bound chain length). It reports
// the answer set and the response code.
func (s *Store) Lookup(view, name string, typ dnsmsg.Type) ([]dnsmsg.RR, dnsmsg.RCode) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var answers []dnsmsg.RR
	cur := dnsmsg.CanonicalName(name)
	for hop := 0; hop < 8; hop++ {
		if set := s.lookupLocked(view, cur, typ); set != nil {
			answers = append(answers, set.rrs...)
			return answers, dnsmsg.RCodeSuccess
		}
		// Try CNAME indirection unless the caller asked for the CNAME.
		if typ != dnsmsg.TypeCNAME {
			if cn := s.lookupLocked(view, cur, dnsmsg.TypeCNAME); cn != nil {
				answers = append(answers, cn.rrs...)
				cur = cn.rrs[0].Target
				continue
			}
		}
		if _, exists := s.names[cur]; exists {
			// Name exists, type absent: NODATA.
			return answers, dnsmsg.RCodeSuccess
		}
		return answers, dnsmsg.RCodeNXDomain
	}
	return nil, dnsmsg.RCodeServFail // chain too deep
}

// lookupLocked fetches the view-specific RRset, falling back to the
// default view. Stored sets are never empty.
func (s *Store) lookupLocked(view, name string, typ dnsmsg.Type) *rrset {
	k := rrsetKey{name: name, typ: typ}
	if set := s.views[view][k]; set != nil {
		return set
	}
	if view != DefaultView {
		return s.views[DefaultView][k]
	}
	return nil
}

// AnswerID returns the identity of the RRset a query for (view, name,
// typ) is answered from: the view's own set, else the default view's,
// else the zero SetID (NODATA or NXDOMAIN). Between stores related
// through Derive, equal IDs mean equal answers, so a resolver that has
// taken one across the wire need not ask again. stable is false when the
// answer goes through a CNAME: it then depends on the target's sets too,
// and must not be reused on the strength of this ID.
func (s *Store) AnswerID(view, name string, typ dnsmsg.Type) (id SetID, stable bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	name = dnsmsg.CanonicalName(name)
	if set := s.lookupLocked(view, name, typ); set != nil {
		return SetID{set}, true
	}
	return SetID{}, typ == dnsmsg.TypeCNAME || s.lookupLocked(view, name, dnsmsg.TypeCNAME) == nil
}

// Server answers DNS queries for one view of a Store, one wire
// datagram at a time.
type Server struct {
	store *Store
	view  string
}

// NewLocalServer returns a server answering through HandleWire. Large
// measurement campaigns use it to keep the full wire codec in the loop
// without paying per-query UDP scheduling.
func NewLocalServer(store *Store, view string) *Server {
	return &Server{store: store, view: view}
}

// maxUDPPayload is the conventional EDNS-safe response budget.
const maxUDPPayload = 1232

// HandleWire processes one query datagram and returns the response
// datagram (nil when the query is dropped).
func (s *Server) HandleWire(wire []byte) []byte {
	q, err := dnsmsg.Unpack(wire)
	if err != nil || q.Header.Response || len(q.Questions) != 1 {
		// Unparseable datagrams are dropped; malformed-but-parseable get
		// FORMERR.
		if err != nil {
			return nil
		}
		resp := &dnsmsg.Message{Header: q.Header}
		resp.Header.Response = true
		resp.Header.RCode = dnsmsg.RCodeFormErr
		out, _ := resp.Pack()
		return out
	}
	question := q.Questions[0]
	resp := &dnsmsg.Message{
		Header: dnsmsg.Header{
			ID:               q.Header.ID,
			Response:         true,
			Authoritative:    true,
			RecursionDesired: q.Header.RecursionDesired,
		},
		Questions: []dnsmsg.Question{question},
	}
	if question.Class != dnsmsg.ClassIN {
		resp.Header.RCode = dnsmsg.RCodeNotImp
	} else {
		answers, rcode := s.store.Lookup(s.view, question.Name, question.Type)
		resp.Header.RCode = rcode
		resp.Answers = answers
		if len(answers) == 0 {
			if apex, ok := s.store.Authority(question.Name); ok {
				soa := s.store.apexes[apex]
				resp.Authority = append(resp.Authority, dnsmsg.RR{
					Name: apex, Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassIN,
					TTL: soa.Minimum, SOA: &soa,
				})
			}
		}
	}
	out, err := resp.Pack()
	if err != nil {
		return nil
	}
	if len(out) > maxUDPPayload {
		// Truncate: strip answers, set TC, and let the client retry
		// (zones are sized to avoid this in practice).
		resp.Answers = nil
		resp.Authority = nil
		resp.Header.Truncated = true
		out, err = resp.Pack()
		if err != nil {
			return nil
		}
	}
	return out
}

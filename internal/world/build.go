package world

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"strings"
	"time"

	"iotmap/internal/asdb"
	"iotmap/internal/geo"
	"iotmap/internal/ipam"
	"iotmap/internal/simrand"
)

// Config parameterizes world construction.
type Config struct {
	// Seed drives every stochastic decision; equal seeds give equal
	// worlds.
	Seed int64
	// Scale multiplies the per-provider server counts of the specs
	// (1.0 reproduces the paper's Figure 3 totals, ≈0.02 suits unit
	// tests).
	Scale float64
	// Days is the study period (default StudyDays()).
	Days []time.Time
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if len(c.Days) == 0 {
		c.Days = StudyDays()
	}
	return c
}

// Server is one ground-truth gateway server.
type Server struct {
	Addr     netip.Addr
	Provider string
	Class    *ServerClass
	Region   geo.Location
	// ASN announces the covering prefix.
	ASN asdb.ASN
	// CloudHost is the hosting cloud's ID for PR addresses ("" for own).
	CloudHost string
	// Names are the FQDNs resolving to this server.
	Names []string
	// FirstDay/LastDay bound the server's lifetime as day indexes into
	// Config.Days (inclusive). Churned-out servers end early; their
	// replacements start late.
	FirstDay, LastDay int
}

// ActiveOn reports whether the server exists on day index d.
func (s *Server) ActiveOn(d int) bool { return d >= s.FirstDay && d <= s.LastDay }

// IsV6 reports the address family.
func (s *Server) IsV6() bool { return s.Addr.Is6() && !s.Addr.Is4In6() }

// Dedicated reports whether the server exclusively serves IoT.
func (s *Server) Dedicated() bool { return !s.Class.Shared }

// Provider is the built deployment of one spec.
type Provider struct {
	Spec    Spec
	Servers []*Server
	// Regions is the resolved footprint.
	Regions []geo.Location
	// names maps FQDN -> member servers (including churned ones).
	names map[string][]*Server
}

// Names returns the provider's FQDNs, sorted.
func (p *Provider) Names() []string {
	out := make([]string, 0, len(p.names))
	for n := range p.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ActiveServers returns the servers alive on day d.
func (p *Provider) ActiveServers(d int) []*Server {
	var out []*Server
	for _, s := range p.Servers {
		if s.ActiveOn(d) {
			out = append(out, s)
		}
	}
	return out
}

// World is the built ground truth.
type World struct {
	Cfg       Config
	Days      []time.Time
	Geo       *geo.DB
	AS        *asdb.Table
	Providers map[string]*Provider
	// Order is the providers in Table 1's alphabetical order.
	Order []string
	// byAddr indexes every server.
	byAddr map[netip.Addr]*Server

	rng *simrand.Source
	// hostSeqs continues host allocation per prefix for churn
	// replacements.
	hostSeqs map[netip.Prefix]*ipam.HostSeq
	// prefixOf remembers each server's covering allocation.
	prefixOf map[netip.Addr]netip.Prefix
}

// ServerAt looks up a server by address.
func (w *World) ServerAt(a netip.Addr) (*Server, bool) {
	s, ok := w.byAddr[a]
	return s, ok
}

// AllServers returns every server of every provider.
func (w *World) AllServers() []*Server {
	var out []*Server
	for _, id := range w.Order {
		out = append(out, w.Providers[id].Servers...)
	}
	return out
}

// cloudASNs fixes the hosting clouds' AS numbers (each large cloud
// announces from several ASes, which is how PR-only providers reach
// Table 1's multi-AS counts).
var cloudASNs = map[string][]asdb.ASN{
	CloudAWS:     {16509, 14618, 8987, 7224},
	CloudAzure:   {8075, 8068, 8069},
	CloudAlibaba: {45102, 45103, 37963},
	CloudAkamai:  {20940, 16625},
}

// Build constructs the world.
func Build(cfg Config) (*World, error) {
	cfg = cfg.withDefaults()
	w := &World{
		Cfg:       cfg,
		Days:      cfg.Days,
		Geo:       geo.World(),
		AS:        asdb.NewTable(),
		Providers: map[string]*Provider{},
		byAddr:    map[netip.Addr]*Server{},
		rng:       simrand.Derive(cfg.Seed, "world"),
		hostSeqs:  map[netip.Prefix]*ipam.HostSeq{},
		prefixOf:  map[netip.Addr]netip.Prefix{},
	}

	// Master pools carve per-AS address space.
	master4 := ipam.NewPool(netip.MustParsePrefix("16.0.0.0/6"))
	master6 := ipam.NewPool(netip.MustParsePrefix("2600::/24"))

	// Cloud ASes exist up front (sorted: pool carving must be
	// deterministic).
	asPools := map[asdb.ASN]*asPool{}
	cloudNames := make([]string, 0, len(cloudASNs))
	for name := range cloudASNs {
		cloudNames = append(cloudNames, name)
	}
	sort.Strings(cloudNames)
	for _, name := range cloudNames {
		for i, asn := range cloudASNs[name] {
			w.AS.RegisterAS(asdb.AS{Number: asn, Name: fmt.Sprintf("%s-%d", strings.ToUpper(name), i+1), Org: name})
			asPools[asn] = &asPool{v4: ipam.NewPool(master4.MustAllocPrefix(12)), v6: ipam.NewPool(master6.MustAllocPrefix(32))}
		}
	}

	nextASN := asdb.ASN(64500)
	for _, spec := range Specs() {
		p, err := w.buildProvider(spec, &nextASN, asPools, master4, master6)
		if err != nil {
			return nil, fmt.Errorf("world: provider %s: %w", spec.ID, err)
		}
		w.Providers[spec.ID] = p
		w.Order = append(w.Order, spec.ID)
	}
	sort.Strings(w.Order)
	return w, nil
}

// asPool bundles the v4/v6 pools of one AS.
type asPool struct {
	v4, v6 *ipam.Pool
}

func (w *World) buildProvider(spec Spec, nextASN *asdb.ASN, asPools map[asdb.ASN]*asPool, master4, master6 *ipam.Pool) (*Provider, error) {
	rng := simrand.Derive(w.Cfg.Seed, "provider", spec.ID)

	// Own ASes.
	var own []asdb.ASN
	for i := 0; i < spec.OwnASNs; i++ {
		asn := *nextASN
		*nextASN++
		w.AS.RegisterAS(asdb.AS{Number: asn, Name: fmt.Sprintf("%s-%d", strings.ToUpper(spec.ID), i+1), Org: spec.ID})
		asPools[asn] = &asPool{v4: ipam.NewPool(master4.MustAllocPrefix(12)), v6: ipam.NewPool(master6.MustAllocPrefix(32))}
		own = append(own, asn)
	}
	// Cloud ASes, for PR placements: each host contributes
	// CloudASCount[host] of its ASes (default 1).
	cloudOf := map[asdb.ASN]string{}
	var clouds []asdb.ASN
	for _, host := range spec.CloudHosts {
		pool, ok := cloudASNs[host]
		if !ok {
			return nil, fmt.Errorf("unknown cloud host %q", host)
		}
		n := spec.CloudASCount[host]
		if n <= 0 {
			n = 1
		}
		if n > len(pool) {
			n = len(pool)
		}
		for _, asn := range pool[:n] {
			cloudOf[asn] = host
			clouds = append(clouds, asn)
		}
	}
	// PR providers lead with their hosting clouds so that even one-server
	// fleets at small Scale land on cloud address space; DI(+PR) leads
	// with the provider's own network.
	var asns []asdb.ASN
	if spec.Strategy == PR {
		asns = append(append(asns, clouds...), own...)
	} else {
		asns = append(append(asns, own...), clouds...)
	}
	if len(asns) == 0 {
		return nil, fmt.Errorf("no ASes")
	}

	regions, err := w.resolveFootprint(spec, rng)
	if err != nil {
		return nil, err
	}

	p := &Provider{Spec: spec, Regions: regions, names: map[string][]*Server{}}

	nV4 := scaleCount(spec.V4Servers, w.Cfg.Scale)
	nV6 := scaleCount(spec.V6Servers, w.Cfg.Scale)
	n24 := scaleCount(spec.V4Slash24, w.Cfg.Scale)
	n56 := scaleCount(spec.V6Slash56, w.Cfg.Scale)
	if spec.V6Servers == 0 {
		nV6, n56 = 0, 0
	}

	if err := w.placeFamily(p, rng, asns, cloudOf, asPools, regions, nV4, n24, false); err != nil {
		return nil, err
	}
	if nV6 > 0 {
		if err := w.placeFamily(p, rng, asns, cloudOf, asPools, regions, nV6, n56, true); err != nil {
			return nil, err
		}
	}
	w.applyChurn(p, rng)

	// Announce every distinct allocation prefix.
	seen := map[netip.Prefix]asdb.ASN{}
	for _, s := range p.Servers {
		pfx := w.prefixOf[s.Addr]
		if _, done := seen[pfx]; !done {
			seen[pfx] = s.ASN
			if err := w.AS.Announce(pfx, s.ASN); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// resolveFootprint expands a Footprint into concrete locations.
func (w *World) resolveFootprint(spec Spec, rng *simrand.Source) ([]geo.Location, error) {
	fp := spec.Footprint
	if len(fp.Explicit) > 0 {
		var out []geo.Location
		for _, code := range fp.Explicit {
			l, ok := w.Geo.ByRegion(code)
			if !ok {
				return nil, fmt.Errorf("unknown region code %q", code)
			}
			out = append(out, l)
		}
		return out, nil
	}
	byCont := map[geo.Continent][]geo.Location{}
	for _, l := range w.Geo.All() {
		if spec.HyphenatedRegions && !strings.Contains(l.Region, "-") {
			continue // this provider's naming scheme needs AWS-style codes
		}
		byCont[l.Continent] = append(byCont[l.Continent], l)
	}
	// Apportion the location budget over continents by mix weight, then
	// take the first k metros of each continent (deterministic).
	conts := make([]geo.Continent, 0, len(fp.Mix))
	weights := make([]float64, 0, len(fp.Mix))
	for _, c := range []geo.Continent{geo.NorthAmerica, geo.Europe, geo.Asia, geo.SouthAmerica, geo.Oceania, geo.Africa} {
		if wgt, ok := fp.Mix[c]; ok && wgt > 0 {
			conts = append(conts, c)
			weights = append(weights, wgt)
		}
	}
	counts := apportion(fp.Locations, weights)
	var out []geo.Location
	for i, c := range conts {
		avail := byCont[c]
		k := counts[i]
		if k > len(avail) {
			k = len(avail)
		}
		out = append(out, avail[:k]...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("footprint resolved to zero locations")
	}
	return out, nil
}

// placeFamily creates the servers of one address family.
func (w *World) placeFamily(p *Provider, rng *simrand.Source, asns []asdb.ASN, cloudOf map[asdb.ASN]string, asPools map[asdb.ASN]*asPool, regions []geo.Location, nServers, nPrefixes int, v6 bool) error {
	spec := p.Spec
	if nServers <= 0 {
		return nil
	}
	if nPrefixes <= 0 {
		nPrefixes = 1
	}
	if nPrefixes > nServers {
		nPrefixes = nServers
	}

	perRegion := apportionRegions(spec, regions, nServers)
	prefWeights := make([]float64, len(regions))
	for i, c := range perRegion {
		prefWeights[i] = float64(c)
	}
	prefixesPerRegion := apportion(nPrefixes, prefWeights)

	// Classes are apportioned globally and dealt out as an interleaved
	// sequence: apportioning per region collapses minority classes to
	// zero whenever a region holds a single server (small fleets would
	// lose their shared/leak flavours entirely).
	classWeights := make([]float64, len(spec.Classes))
	for i, c := range spec.Classes {
		classWeights[i] = c.Weight
	}
	classSeq := dealClasses(nServers, classWeights)
	seqIdx := 0

	lastDay := len(w.Days) - 1
	globalShard := 0
	for ri, region := range regions {
		count := perRegion[ri]
		if count == 0 {
			continue
		}
		asn := asns[ri%len(asns)]
		pool := asPools[asn]
		npfx := prefixesPerRegion[ri]
		if npfx <= 0 {
			npfx = 1
		}
		if npfx > count {
			npfx = count
		}
		prefixes := make([]netip.Prefix, npfx)
		for i := range prefixes {
			if v6 {
				prefixes[i] = pool.v6.MustAllocPrefix(56)
			} else {
				prefixes[i] = pool.v4.MustAllocPrefix(24)
			}
			w.hostSeqs[prefixes[i]] = ipam.Hosts(prefixes[i])
		}
		for idxInRegion := 0; idxInRegion < count; idxInRegion++ {
			ci := classSeq[seqIdx]
			seqIdx++
			pfx := prefixes[idxInRegion%len(prefixes)]
			addr := w.hostSeqs[pfx].Next()
			if !addr.IsValid() {
				return fmt.Errorf("prefix %v exhausted", pfx)
			}
			srv := &Server{
				Addr:      addr,
				Provider:  spec.ID,
				Class:     &spec.Classes[ci],
				Region:    region,
				ASN:       asn,
				CloudHost: cloudOf[asn],
				FirstDay:  0,
				LastDay:   lastDay,
			}
			shard := globalShard + idxInRegion
			srv.Names = w.namesFor(spec, region, shard, rng)
			p.Servers = append(p.Servers, srv)
			w.byAddr[addr] = srv
			w.prefixOf[addr] = pfx
			for _, n := range srv.Names {
				p.names[n] = append(p.names[n], srv)
			}
		}
		globalShard += (count + max(spec.ServersPerName, 1) - 1)
	}
	return nil
}

// classTargets is the per-class server count: the global apportionment
// with a floor of one server for every positive-weight class (when the
// fleet can afford it). Providers run every documented flavour of
// gateway even when a flavour is a sliver of the fleet — Siemens' 10%
// leak class must exist at any world scale.
func classTargets(n int, weights []float64) []int {
	counts := apportion(n, weights)
	positives := 0
	for _, w := range weights {
		if w > 0 {
			positives++
		}
	}
	if n < positives {
		return counts
	}
	for ci, w := range weights {
		if w <= 0 || counts[ci] > 0 {
			continue
		}
		// Steal one from the largest class.
		largest := -1
		for cj := range counts {
			if largest < 0 || counts[cj] > counts[largest] {
				largest = cj
			}
		}
		if largest >= 0 && counts[largest] > 1 {
			counts[largest]--
			counts[ci]++
		}
	}
	return counts
}

// dealClasses builds a length-n sequence of class indexes whose totals
// follow classTargets, interleaved so every region slice of the
// sequence sees a representative mix.
func dealClasses(n int, weights []float64) []int {
	counts := classTargets(n, weights)
	remaining := append([]int(nil), counts...)
	out := make([]int, 0, n)
	for len(out) < n {
		// Pick the class with the largest remaining deficit relative to
		// its target share (largest-remainder round-robin).
		best, bestScore := -1, -1.0
		for ci := range remaining {
			if remaining[ci] == 0 {
				continue
			}
			score := float64(remaining[ci]) / float64(counts[ci])
			if score > bestScore {
				best, bestScore = ci, score
			}
		}
		if best < 0 {
			break
		}
		out = append(out, best)
		remaining[best]--
	}
	return out
}

// namesFor mints the FQDNs of the server at shard index.
func (w *World) namesFor(spec Spec, region geo.Location, shard int, rng *simrand.Source) []string {
	per := spec.ServersPerName
	if per < 1 {
		per = 1
	}
	shardID := shard / per
	switch spec.Scheme {
	case NameFixedGlobal:
		return append([]string(nil), spec.FixedNames...)
	case NameHashRegion:
		return []string{fmt.Sprintf("%s.%s.%s.%s", hashLabel(w.Cfg.Seed, spec.ID, shardID), spec.NameLabel, region.Region, spec.SLD)}
	case NameRegionFixed:
		label := spec.NameLabel
		if label == "" {
			// Sierra-style continent labels: na/eu/as.
			label = continentLabel(region.Continent)
			return []string{fmt.Sprintf("%s.%s", label, spec.SLD)}
		}
		return []string{fmt.Sprintf("%s.%s.%s", label, region.Region, spec.SLD)}
	case NameRegionCustomer:
		return []string{fmt.Sprintf("%s.%s.%s", hashLabel(w.Cfg.Seed, spec.ID, shardID), mindsphereLabel(region.Continent), spec.SLD)}
	default: // NameCustomer
		if spec.NameLabel != "" {
			return []string{fmt.Sprintf("%s.%s.%s", hashLabel(w.Cfg.Seed, spec.ID, shardID), spec.NameLabel, spec.SLD)}
		}
		return []string{fmt.Sprintf("%s.%s", hashLabel(w.Cfg.Seed, spec.ID, shardID), spec.SLD)}
	}
}

func continentLabel(c geo.Continent) string {
	switch c {
	case geo.NorthAmerica:
		return "na"
	case geo.Europe:
		return "eu"
	case geo.Asia:
		return "as"
	default:
		return "ot"
	}
}

func mindsphereLabel(c geo.Continent) string {
	switch c {
	case geo.Europe:
		return "eu1"
	case geo.NorthAmerica:
		return "us1"
	case geo.Asia:
		return "cn1"
	default:
		return "eu2"
	}
}

// hashLabel derives a stable customer/shard label.
func hashLabel(seed int64, providerID string, shard int) string {
	rng := simrand.Derive(seed, "name", providerID, fmt.Sprint(shard))
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	n := 8 + rng.Intn(4)
	b := make([]byte, n)
	b[0] = alphabet[rng.Intn(26)] // labels start with a letter
	for i := 1; i < n; i++ {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// applyChurn retires ChurnDaily of the fleet each day and spawns
// replacements in the same prefix/region/class/name shard (Figure 4's
// cloud-churn signature: the name stays, the address moves).
func (w *World) applyChurn(p *Provider, rng *simrand.Source) {
	churn := p.Spec.ChurnDaily
	if churn <= 0 {
		return
	}
	lastDay := len(w.Days) - 1
	for d := 1; d <= lastDay; d++ {
		var alive []*Server
		for _, s := range p.Servers {
			if s.ActiveOn(d) && s.ActiveOn(d-1) {
				alive = append(alive, s)
			}
		}
		k := int(math.Round(churn * float64(len(alive))))
		for i := 0; i < k && len(alive) > 0; i++ {
			victimIdx := rng.Intn(len(alive))
			victim := alive[victimIdx]
			alive = append(alive[:victimIdx], alive[victimIdx+1:]...)
			victim.LastDay = d - 1

			pfx := w.prefixOf[victim.Addr]
			addr := w.hostSeqs[pfx].Next()
			if !addr.IsValid() {
				continue // prefix exhausted; retire without replacement
			}
			repl := &Server{
				Addr:      addr,
				Provider:  victim.Provider,
				Class:     victim.Class,
				Region:    victim.Region,
				ASN:       victim.ASN,
				CloudHost: victim.CloudHost,
				Names:     append([]string(nil), victim.Names...),
				FirstDay:  d,
				LastDay:   lastDay,
			}
			p.Servers = append(p.Servers, repl)
			w.byAddr[addr] = repl
			w.prefixOf[addr] = pfx
			for _, n := range repl.Names {
				p.names[n] = append(p.names[n], repl)
			}
		}
	}
}

// apportionRegions distributes nServers over a provider's regions.
// Explicit footprints are front-loaded (the first listed region is the
// flagship deployment); sampled footprints apportion hierarchically —
// first across continents by the footprint mix, then uniformly across
// the continent's metros — so small fleets still span the intended
// continents (Figures 13/15 depend on this spread).
func apportionRegions(spec Spec, regions []geo.Location, nServers int) []int {
	out := make([]int, len(regions))
	if nServers <= 0 || len(regions) == 0 {
		return out
	}
	if len(spec.Footprint.Explicit) > 0 {
		weights := make([]float64, len(regions))
		for i := range regions {
			weights[i] = 1 / float64(i+1)
		}
		return apportion(nServers, weights)
	}
	// Group region indices per continent, preserving order.
	contOrder := []geo.Continent{}
	regionsOf := map[geo.Continent][]int{}
	for i, r := range regions {
		if _, seen := regionsOf[r.Continent]; !seen {
			contOrder = append(contOrder, r.Continent)
		}
		regionsOf[r.Continent] = append(regionsOf[r.Continent], i)
	}
	contWeights := make([]float64, len(contOrder))
	for i, c := range contOrder {
		contWeights[i] = spec.Footprint.Mix[c]
		if contWeights[i] <= 0 {
			contWeights[i] = 0.01
		}
	}
	perCont := apportion(nServers, contWeights)
	for i, c := range contOrder {
		idxs := regionsOf[c]
		uniform := make([]float64, len(idxs))
		for j := range uniform {
			uniform[j] = 1
		}
		counts := apportion(perCont[i], uniform)
		for j, idx := range idxs {
			out[idx] = counts[j]
		}
	}
	return out
}

// scaleCount applies the world scale with a floor of 1 for non-zero
// targets.
func scaleCount(n int, scale float64) int {
	if n <= 0 {
		return 0
	}
	v := int(math.Round(float64(n) * scale))
	if v < 1 {
		v = 1
	}
	return v
}

// apportion splits n into len(weights) integer parts proportional to
// weights (largest-remainder method; deterministic).
func apportion(n int, weights []float64) []int {
	out := make([]int, len(weights))
	if n <= 0 || len(weights) == 0 {
		return out
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		out[0] = n
		return out
	}
	type rem struct {
		idx  int
		frac float64
	}
	assigned := 0
	rems := make([]rem, 0, len(weights))
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		exact := float64(n) * w / total
		fl := int(math.Floor(exact))
		out[i] = fl
		assigned += fl
		rems = append(rems, rem{idx: i, frac: exact - float64(fl)})
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for i := 0; assigned < n && len(rems) > 0; i++ {
		out[rems[i%len(rems)].idx]++
		assigned++
	}
	return out
}

// Package geo models the geographic substrate of the study: cities,
// countries, continents, the region-code naming schemes IoT backend
// providers embed in their domain names (Section 4.2), and the
// multi-source majority-vote geolocator the paper uses when no domain
// hint is available ("In less than 7% of cases, these sources report
// different locations, in which case we use the majority vote").
package geo

import (
	"fmt"
	"sort"
	"strings"
)

// Continent is one of the coarse regions used in the cross-border
// analysis (Section 5.7).
type Continent string

// Continents distinguished by the paper's Figures 13 and 14.
const (
	Europe       Continent = "EU"
	NorthAmerica Continent = "NA"
	Asia         Continent = "AS"
	SouthAmerica Continent = "SA"
	Oceania      Continent = "OC"
	Africa       Continent = "AF"
	Unknown      Continent = "??"
)

// Location is a datacenter city: the unit of the paper's "# Locations"
// column in Table 1.
type Location struct {
	// City is the human-readable name, e.g. "Frankfurt".
	City string
	// Country is the ISO 3166-1 alpha-2 code, e.g. "DE".
	Country string
	// Continent is the coarse region.
	Continent Continent
	// Airport is the IATA code some providers embed in hostnames.
	Airport string
	// Region is the cloud-style region code, e.g. "eu-central-1".
	Region string
}

// Valid reports whether the location carries at least a country.
func (l Location) Valid() bool { return l.Country != "" }

// String renders "City, CC (region)".
func (l Location) String() string {
	if !l.Valid() {
		return "unknown"
	}
	return fmt.Sprintf("%s, %s (%s)", l.City, l.Country, l.Region)
}

// DB is the location registry. It resolves region codes, airport codes and
// city names back to Locations, the inverse of the hint extraction that
// providers' domain-name schemes allow.
type DB struct {
	byRegion  map[string]Location
	byAirport map[string]Location
	byCity    map[string]Location
	all       []Location
}

// NewDB builds a registry over locs. Later duplicates of the same region
// code are rejected so the world generator cannot silently shadow regions.
func NewDB(locs []Location) (*DB, error) {
	db := &DB{
		byRegion:  make(map[string]Location, len(locs)),
		byAirport: make(map[string]Location, len(locs)),
		byCity:    make(map[string]Location, len(locs)),
	}
	for _, l := range locs {
		if l.Region == "" {
			return nil, fmt.Errorf("geo: location %q has no region code", l.City)
		}
		if _, dup := db.byRegion[l.Region]; dup {
			return nil, fmt.Errorf("geo: duplicate region code %q", l.Region)
		}
		db.byRegion[l.Region] = l
		if l.Airport != "" {
			db.byAirport[strings.ToLower(l.Airport)] = l
		}
		db.byCity[strings.ToLower(l.City)] = l
		db.all = append(db.all, l)
	}
	sort.Slice(db.all, func(i, j int) bool { return db.all[i].Region < db.all[j].Region })
	return db, nil
}

// All returns every registered location, sorted by region code. The
// slice is the registry's own table, sorted once at registration:
// callers must not mutate it.
func (db *DB) All() []Location { return db.all }

// ByRegion resolves a cloud region code.
func (db *DB) ByRegion(code string) (Location, bool) {
	l, ok := db.byRegion[code]
	return l, ok
}

// FromHint resolves any of the hint styles providers embed in hostnames:
// full region codes ("eu-central-1", "cn-shanghai"), airport codes
// ("fra", "iad"), or city names. It tries the most specific format first.
func (db *DB) FromHint(hint string) (Location, bool) {
	h := strings.ToLower(strings.TrimSpace(hint))
	if h == "" {
		return Location{}, false
	}
	if l, ok := db.byRegion[h]; ok {
		return l, ok
	}
	if l, ok := db.byAirport[h]; ok {
		return l, ok
	}
	if l, ok := db.byCity[h]; ok {
		return l, ok
	}
	return Location{}, false
}

// Vote is one geolocation opinion from one source (prefix announcement
// location, scan metadata, looking-glass ping).
type Vote struct {
	Source   string
	Location Location
}

// MajorityVote fuses independent location opinions the way Section 4.2
// describes: if all agree, that location wins; otherwise the location
// seen most often wins; ties are broken deterministically by country then
// city so repeated runs agree.
func MajorityVote(votes []Vote) (Location, bool) {
	if len(votes) == 0 {
		return Location{}, false
	}
	type key struct {
		city, country string
	}
	counts := make(map[key]int)
	locs := make(map[key]Location)
	for _, v := range votes {
		if !v.Location.Valid() {
			continue
		}
		k := key{v.Location.City, v.Location.Country}
		counts[k]++
		locs[k] = v.Location
	}
	if len(counts) == 0 {
		return Location{}, false
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		if keys[i].country != keys[j].country {
			return keys[i].country < keys[j].country
		}
		return keys[i].city < keys[j].city
	})
	return locs[keys[0]], true
}

// World returns the built-in location registry used by the synthetic
// Internet: a superset of the datacenter metros that the 16 providers of
// Table 1 occupy. Region codes follow each operator family's style
// (AWS-style, Azure-style, Chinese-cloud style) so the hostname-hint
// extraction exercises all naming schemes in Section 4.2.
func World() *DB {
	db, err := NewDB(worldLocations)
	if err != nil {
		panic(err) // static data; validated by tests
	}
	return db
}

var worldLocations = []Location{
	// Europe
	{City: "Frankfurt", Country: "DE", Continent: Europe, Airport: "FRA", Region: "eu-central-1"},
	{City: "Dublin", Country: "IE", Continent: Europe, Airport: "DUB", Region: "eu-west-1"},
	{City: "London", Country: "GB", Continent: Europe, Airport: "LHR", Region: "eu-west-2"},
	{City: "Paris", Country: "FR", Continent: Europe, Airport: "CDG", Region: "eu-west-3"},
	{City: "Stockholm", Country: "SE", Continent: Europe, Airport: "ARN", Region: "eu-north-1"},
	{City: "Milan", Country: "IT", Continent: Europe, Airport: "MXP", Region: "eu-south-1"},
	{City: "Amsterdam", Country: "NL", Continent: Europe, Airport: "AMS", Region: "westeurope"},
	{City: "Zurich", Country: "CH", Continent: Europe, Airport: "ZRH", Region: "europe-west6"},
	{City: "Warsaw", Country: "PL", Continent: Europe, Airport: "WAW", Region: "europe-central2"},
	{City: "Madrid", Country: "ES", Continent: Europe, Airport: "MAD", Region: "europe-southwest1"},
	{City: "Brussels", Country: "BE", Continent: Europe, Airport: "BRU", Region: "europe-west1"},
	{City: "Berlin", Country: "DE", Continent: Europe, Airport: "BER", Region: "eu1"},
	// North America
	{City: "Ashburn", Country: "US", Continent: NorthAmerica, Airport: "IAD", Region: "us-east-1"},
	{City: "Columbus", Country: "US", Continent: NorthAmerica, Airport: "CMH", Region: "us-east-2"},
	{City: "San Jose", Country: "US", Continent: NorthAmerica, Airport: "SJC", Region: "us-west-1"},
	{City: "Portland", Country: "US", Continent: NorthAmerica, Airport: "PDX", Region: "us-west-2"},
	{City: "Dallas", Country: "US", Continent: NorthAmerica, Airport: "DFW", Region: "us-south-1"},
	{City: "Chicago", Country: "US", Continent: NorthAmerica, Airport: "ORD", Region: "us-central-1"},
	{City: "Montreal", Country: "CA", Continent: NorthAmerica, Airport: "YUL", Region: "ca-central-1"},
	{City: "Phoenix", Country: "US", Continent: NorthAmerica, Airport: "PHX", Region: "us-phoenix-1"},
	{City: "New York", Country: "US", Continent: NorthAmerica, Airport: "JFK", Region: "us-east4"},
	// Asia
	{City: "Beijing", Country: "CN", Continent: Asia, Airport: "PEK", Region: "cn-north-1"},
	{City: "Shanghai", Country: "CN", Continent: Asia, Airport: "PVG", Region: "cn-shanghai"},
	{City: "Shenzhen", Country: "CN", Continent: Asia, Airport: "SZX", Region: "cn-shenzhen"},
	{City: "Hangzhou", Country: "CN", Continent: Asia, Airport: "HGH", Region: "cn-hangzhou"},
	{City: "Guangzhou", Country: "CN", Continent: Asia, Airport: "CAN", Region: "cn-south-1"},
	{City: "Tokyo", Country: "JP", Continent: Asia, Airport: "NRT", Region: "ap-northeast-1"},
	{City: "Osaka", Country: "JP", Continent: Asia, Airport: "KIX", Region: "ap-northeast-3"},
	{City: "Seoul", Country: "KR", Continent: Asia, Airport: "ICN", Region: "ap-northeast-2"},
	{City: "Singapore", Country: "SG", Continent: Asia, Airport: "SIN", Region: "ap-southeast-1"},
	{City: "Mumbai", Country: "IN", Continent: Asia, Airport: "BOM", Region: "ap-south-1"},
	{City: "Hong Kong", Country: "HK", Continent: Asia, Airport: "HKG", Region: "ap-east-1"},
	{City: "Dubai", Country: "AE", Continent: Asia, Airport: "DXB", Region: "me-central-1"},
	// South America / Oceania / Africa
	{City: "Sao Paulo", Country: "BR", Continent: SouthAmerica, Airport: "GRU", Region: "sa-east-1"},
	{City: "Sydney", Country: "AU", Continent: Oceania, Airport: "SYD", Region: "ap-southeast-2"},
	{City: "Johannesburg", Country: "ZA", Continent: Africa, Airport: "JNB", Region: "af-south-1"},
	// Additional metros so large footprints (Google lists 77 locations in
	// Table 1) can be laid out. Codes follow the GCP/Azure/OCI styles.
	{City: "Helsinki", Country: "FI", Continent: Europe, Airport: "HEL", Region: "europe-north1"},
	{City: "Turin", Country: "IT", Continent: Europe, Airport: "TRN", Region: "europe-west12"},
	{City: "Vienna", Country: "AT", Continent: Europe, Airport: "VIE", Region: "austriaeast"},
	{City: "Oslo", Country: "NO", Continent: Europe, Airport: "OSL", Region: "norwayeast"},
	{City: "Copenhagen", Country: "DK", Continent: Europe, Airport: "CPH", Region: "denmarkeast"},
	{City: "Lisbon", Country: "PT", Continent: Europe, Airport: "LIS", Region: "portugalnorth"},
	{City: "Athens", Country: "GR", Continent: Europe, Airport: "ATH", Region: "greececentral"},
	{City: "Prague", Country: "CZ", Continent: Europe, Airport: "PRG", Region: "czechcentral"},
	{City: "Bucharest", Country: "RO", Continent: Europe, Airport: "OTP", Region: "romaniaeast"},
	{City: "Munich", Country: "DE", Continent: Europe, Airport: "MUC", Region: "eu-de-2"},
	{City: "Manchester", Country: "GB", Continent: Europe, Airport: "MAN", Region: "uknorth"},
	{City: "Marseille", Country: "FR", Continent: Europe, Airport: "MRS", Region: "francesouth"},
	{City: "Atlanta", Country: "US", Continent: NorthAmerica, Airport: "ATL", Region: "us-east5"},
	{City: "Salt Lake City", Country: "US", Continent: NorthAmerica, Airport: "SLC", Region: "us-west3"},
	{City: "Las Vegas", Country: "US", Continent: NorthAmerica, Airport: "LAS", Region: "us-west4"},
	{City: "Denver", Country: "US", Continent: NorthAmerica, Airport: "DEN", Region: "us-mountain1"},
	{City: "Miami", Country: "US", Continent: NorthAmerica, Airport: "MIA", Region: "us-southeast1"},
	{City: "Seattle", Country: "US", Continent: NorthAmerica, Airport: "SEA", Region: "us-northwest1"},
	{City: "Boston", Country: "US", Continent: NorthAmerica, Airport: "BOS", Region: "us-northeast2"},
	{City: "Houston", Country: "US", Continent: NorthAmerica, Airport: "IAH", Region: "us-south2"},
	{City: "Minneapolis", Country: "US", Continent: NorthAmerica, Airport: "MSP", Region: "us-central2"},
	{City: "Toronto", Country: "CA", Continent: NorthAmerica, Airport: "YYZ", Region: "ca-toronto-1"},
	{City: "Vancouver", Country: "CA", Continent: NorthAmerica, Airport: "YVR", Region: "ca-west-1"},
	{City: "Queretaro", Country: "MX", Continent: NorthAmerica, Airport: "QRO", Region: "mx-central-1"},
	{City: "Chengdu", Country: "CN", Continent: Asia, Airport: "CTU", Region: "cn-southwest-2"},
	{City: "Ningxia", Country: "CN", Continent: Asia, Airport: "INC", Region: "cn-northwest-1"},
	{City: "Qingdao", Country: "CN", Continent: Asia, Airport: "TAO", Region: "cn-qingdao"},
	{City: "Zhangjiakou", Country: "CN", Continent: Asia, Airport: "ZQZ", Region: "cn-zhangjiakou"},
	{City: "Jakarta", Country: "ID", Continent: Asia, Airport: "CGK", Region: "ap-southeast-3"},
	{City: "Bangkok", Country: "TH", Continent: Asia, Airport: "BKK", Region: "ap-southeast-7"},
	{City: "Kuala Lumpur", Country: "MY", Continent: Asia, Airport: "KUL", Region: "ap-southeast-5"},
	{City: "Manila", Country: "PH", Continent: Asia, Airport: "MNL", Region: "ap-southeast-6"},
	{City: "Hyderabad", Country: "IN", Continent: Asia, Airport: "HYD", Region: "ap-south-2"},
	{City: "Chennai", Country: "IN", Continent: Asia, Airport: "MAA", Region: "ap-south-3"},
	{City: "Taipei", Country: "TW", Continent: Asia, Airport: "TPE", Region: "ap-east-2"},
	{City: "Tel Aviv", Country: "IL", Continent: Asia, Airport: "TLV", Region: "il-central-1"},
	{City: "Bahrain", Country: "BH", Continent: Asia, Airport: "BAH", Region: "me-south-1"},
	{City: "Abu Dhabi", Country: "AE", Continent: Asia, Airport: "AUH", Region: "me-central-2"},
	{City: "Santiago", Country: "CL", Continent: SouthAmerica, Airport: "SCL", Region: "sa-west-1"},
	{City: "Bogota", Country: "CO", Continent: SouthAmerica, Airport: "BOG", Region: "sa-north-1"},
	{City: "Rio de Janeiro", Country: "BR", Continent: SouthAmerica, Airport: "GIG", Region: "sa-east-2"},
	{City: "Melbourne", Country: "AU", Continent: Oceania, Airport: "MEL", Region: "ap-southeast-4"},
	{City: "Auckland", Country: "NZ", Continent: Oceania, Airport: "AKL", Region: "ap-southeast-8"},
	{City: "Cape Town", Country: "ZA", Continent: Africa, Airport: "CPT", Region: "af-south-2"},
	{City: "Lagos", Country: "NG", Continent: Africa, Airport: "LOS", Region: "af-west-1"},
	{City: "Nairobi", Country: "KE", Continent: Africa, Airport: "NBO", Region: "af-east-1"},
}

// CountDistinct returns the number of distinct locations and countries in
// locs, Table 1's "# Locations" and "# Countries" columns.
func CountDistinct(locs []Location) (locations, countries int) {
	seenLoc := map[string]struct{}{}
	seenCty := map[string]struct{}{}
	for _, l := range locs {
		if !l.Valid() {
			continue
		}
		seenLoc[l.City+"/"+l.Country] = struct{}{}
		seenCty[l.Country] = struct{}{}
	}
	return len(seenLoc), len(seenCty)
}

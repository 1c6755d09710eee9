package geo

import (
	"reflect"
	"sort"
	"testing"
)

func TestWorldDBBuilds(t *testing.T) {
	db := World()
	if len(db.All()) < 30 {
		t.Fatalf("world registry too small: %d", len(db.All()))
	}
}

func TestDuplicateRegionRejected(t *testing.T) {
	_, err := NewDB([]Location{
		{City: "A", Country: "US", Region: "r1"},
		{City: "B", Country: "DE", Region: "r1"},
	})
	if err == nil {
		t.Fatal("duplicate region code accepted")
	}
}

func TestMissingRegionRejected(t *testing.T) {
	if _, err := NewDB([]Location{{City: "A", Country: "US"}}); err == nil {
		t.Fatal("location without region code accepted")
	}
}

func TestLookups(t *testing.T) {
	db := World()
	l, ok := db.ByRegion("eu-central-1")
	if !ok || l.City != "Frankfurt" {
		t.Fatalf("ByRegion(eu-central-1) = %v, %v", l, ok)
	}
	l, ok = db.FromHint("IAD")
	if !ok || l.City != "Ashburn" {
		t.Fatalf("FromHint(IAD) = %v, %v; airport hints are case-insensitive", l, ok)
	}
	l, ok = db.FromHint("tokyo")
	if !ok || l.Country != "JP" {
		t.Fatalf("FromHint(tokyo) = %v, %v", l, ok)
	}
}

func TestFromHintFormats(t *testing.T) {
	db := World()
	cases := []struct {
		hint string
		city string
	}{
		{"cn-shanghai", "Shanghai"},
		{"fra", "Frankfurt"},
		{"singapore", "Singapore"},
		{" eu-west-1 ", "Dublin"},
	}
	for _, c := range cases {
		l, ok := db.FromHint(c.hint)
		if !ok || l.City != c.city {
			t.Fatalf("FromHint(%q) = %v, %v; want %s", c.hint, l, ok, c.city)
		}
	}
	if _, ok := db.FromHint(""); ok {
		t.Fatal("empty hint resolved")
	}
	if _, ok := db.FromHint("nowhere-9"); ok {
		t.Fatal("bogus hint resolved")
	}
}

func TestMajorityVote(t *testing.T) {
	fra := Location{City: "Frankfurt", Country: "DE", Continent: Europe}
	iad := Location{City: "Ashburn", Country: "US", Continent: NorthAmerica}
	win, ok := MajorityVote([]Vote{
		{Source: "censys", Location: fra},
		{Source: "hurricane", Location: fra},
		{Source: "ping", Location: iad},
	})
	if !ok || win.City != "Frankfurt" {
		t.Fatalf("majority = %v, %v", win, ok)
	}
}

func TestMajorityVoteTieDeterministic(t *testing.T) {
	fra := Location{City: "Frankfurt", Country: "DE"}
	iad := Location{City: "Ashburn", Country: "US"}
	for i := 0; i < 10; i++ {
		win, ok := MajorityVote([]Vote{{Location: iad}, {Location: fra}})
		if !ok || win.Country != "DE" {
			t.Fatalf("tie break should pick DE (lexicographic country); got %v", win)
		}
	}
}

func TestMajorityVoteEmptyAndInvalid(t *testing.T) {
	if _, ok := MajorityVote(nil); ok {
		t.Fatal("empty vote set produced a winner")
	}
	if _, ok := MajorityVote([]Vote{{Location: Location{}}}); ok {
		t.Fatal("invalid-only vote set produced a winner")
	}
}

func TestCountDistinct(t *testing.T) {
	db := World()
	fra, _ := db.ByRegion("eu-central-1")
	dub, _ := db.ByRegion("eu-west-1")
	ber, _ := db.ByRegion("eu1")
	locs, ctys := CountDistinct([]Location{fra, fra, dub, ber, {}})
	if locs != 3 {
		t.Fatalf("locations = %d, want 3", locs)
	}
	if ctys != 2 { // DE (Frankfurt+Berlin), IE
		t.Fatalf("countries = %d, want 2", ctys)
	}
}

func TestLocationString(t *testing.T) {
	l := Location{City: "Frankfurt", Country: "DE", Region: "eu-central-1"}
	if got := l.String(); got != "Frankfurt, DE (eu-central-1)" {
		t.Fatalf("String() = %q", got)
	}
	if (Location{}).String() != "unknown" {
		t.Fatal("zero location should render unknown")
	}
}

func TestContinentCoverage(t *testing.T) {
	db := World()
	byCont := map[Continent]int{}
	for _, l := range db.All() {
		byCont[l.Continent]++
	}
	for _, c := range []Continent{Europe, NorthAmerica, Asia} {
		if byCont[c] < 5 {
			t.Fatalf("continent %s underpopulated: %d", c, byCont[c])
		}
	}
}

// All() hands out the registry's own table: it must come back sorted by
// region code whatever the registration order, and be the same on every
// call.
func TestAllSortedAndStable(t *testing.T) {
	db, err := NewDB([]Location{
		{City: "Virginia", Country: "US", Continent: NorthAmerica, Airport: "IAD", Region: "us-east-1"},
		{City: "Frankfurt", Country: "DE", Continent: Europe, Airport: "FRA", Region: "eu-central-1"},
		{City: "Shanghai", Country: "CN", Continent: Asia, Airport: "PVG", Region: "cn-shanghai"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*DB{db, World()} {
		first := d.All()
		if !sort.SliceIsSorted(first, func(i, j int) bool { return first[i].Region < first[j].Region }) {
			t.Fatalf("All() not sorted by region code: %v", first)
		}
		if again := d.All(); !reflect.DeepEqual(first, again) {
			t.Fatal("All() changed between calls")
		}
	}
}

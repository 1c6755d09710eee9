// Package world builds the synthetic-Internet ground truth the
// measurement pipeline is evaluated against: the 16 IoT backend providers
// of Table 1 with their deployment footprints, DNS naming schemes,
// certificate policies, churn behaviour, and the observation channels
// (Censys-style snapshots, passive DNS, authoritative zones, IPv6
// hitlists) through which the pipeline — and only the pipeline — may look
// at them.
//
// The specs below encode the paper's published per-provider
// characteristics; the pipeline never reads them directly. See DESIGN.md
// for the substitution argument.
package world

import (
	"time"

	"iotmap/internal/geo"
	"iotmap/internal/iotserver"
	"iotmap/internal/proto"
)

// Strategy is the deployment strategy column of Table 1.
type Strategy uint8

// Strategies.
const (
	DI   Strategy = iota // Dedicated Infrastructure
	PR                   // Public cloud Resources / CDN
	DIPR                 // both (Oracle)
)

// String renders the Table 1 abbreviation.
func (s Strategy) String() string {
	switch s {
	case DI:
		return "DI"
	case PR:
		return "PR"
	case DIPR:
		return "DI+PR"
	default:
		return "?"
	}
}

// EndpointSpec is one service an IoT gateway class exposes.
type EndpointSpec struct {
	Port      uint16
	Transport proto.Transport
	Protocol  proto.Protocol
	Policy    iotserver.TLSPolicy
}

// ServerClass describes a flavour of gateway server a provider deploys.
// Weights select how many servers belong to each class; the class decides
// which endpoints exist and therefore whether a certless scan can harvest
// a certificate from the server at all (Figure 3's per-source mix).
type ServerClass struct {
	Name      string
	Weight    float64
	Endpoints []EndpointSpec
	// Shared marks servers that also host non-IoT services (Google's
	// HTTPS frontends, Oracle's CDN-leased IPs); the validation stage
	// (Section 3.4) must filter them out of the dedicated set.
	Shared bool
}

// CertVisible reports whether a certless IPv4-wide scan can pull a
// certificate from this class.
func (c ServerClass) CertVisible() bool {
	for _, ep := range c.Endpoints {
		if ep.Protocol.TLSCapable() && ep.Policy == iotserver.PolicyDefaultCert {
			return true
		}
	}
	return false
}

// Footprint selects where a provider's gateways sit.
type Footprint struct {
	// Explicit region codes; when set, Locations/Mix are ignored.
	Explicit []string
	// Locations is the number of metros to sample when Explicit is empty.
	Locations int
	// Mix weights the sampled metros per continent.
	Mix map[geo.Continent]float64
}

// HyphenatedRegions restricts sampled metros to AWS-style hyphenated
// region codes; providers whose domain regex requires a hyphenated
// <region> label (Amazon's Appendix A pattern) set this on the Spec.

// Disclosure is the ground-truth publication level (Section 3.4).
type Disclosure uint8

// Disclosure levels; the zero Disclosure publishes nothing.
const (
	DiscloseIPs      Disclosure = iota + 1 // full IP list (Cisco, Siemens)
	DisclosePrefixes                       // network prefixes only (Microsoft)
)

// NameScheme selects how FQDNs are minted (Section 3.2's
// <subdomain>.<region>.<second-level-domain> taxonomy).
type NameScheme uint8

// Name schemes.
const (
	// NameHashRegion mints <hash>.<label>.<region>.<sld> per shard.
	NameHashRegion NameScheme = iota
	// NameCustomer mints <customer>.<sld> with no region label.
	NameCustomer
	// NameFixedGlobal uses the same FQDNs for all customers (Google).
	NameFixedGlobal
	// NameRegionFixed mints <label>.<region>.<sld> without customer part.
	NameRegionFixed
	// NameRegionCustomer mints <customer>.<regionlabel>.<sld> (Siemens).
	NameRegionCustomer
)

// Spec is the per-provider ground-truth configuration.
type Spec struct {
	ID    string // stable key, e.g. "amazon"
	Name  string // Table 1 display name
	Alias string // anonymized ISP-analysis label (T1..T4, D1..D6, O1..O6)
	SLD   string // second-level domain of the backend namespace

	Strategy Strategy
	// OwnASNs is how many ASes the provider itself operates.
	OwnASNs int
	// CloudHosts name the clouds announcing the provider's PR addresses.
	CloudHosts []string
	// CloudASCount says how many of each cloud's ASes the provider's
	// deployment spans (Table 1's #AS column counts these; default 1).
	CloudASCount map[string]int

	Footprint Footprint

	// V4Servers / V6Servers are gateway counts at Scale=1, calibrated to
	// the per-provider IP counts of Figure 3.
	V4Servers int
	V6Servers int
	// V4Slash24 / V6Slash56 are the Table 1 aggregate targets at Scale=1.
	V4Slash24 int
	V6Slash56 int

	Classes []ServerClass

	Scheme NameScheme
	// NameLabel is the scheme's <label> part (e.g. "iot", "iot-as-mqtt",
	// "iot-mqtts", "messaging").
	NameLabel string
	// FixedNames are the global FQDNs for NameFixedGlobal.
	FixedNames []string
	// ServersPerName shards servers behind shared FQDNs (DNS rotation).
	ServersPerName int

	// PDNSNameFrac is the fraction of FQDNs the passive-DNS sensors ever
	// observe; PDNSAddrFrac the fraction of a known name's servers whose
	// A/AAAA records land in the database. Active resolution closes the
	// address gap (Section 3.5's "Active DNS" contribution).
	PDNSNameFrac float64
	PDNSAddrFrac float64

	// ChurnDaily is the fraction of servers replaced per day (Figure 4:
	// cloud-hosted providers churn, dedicated ones barely).
	ChurnDaily float64

	// GeoDNS steers resolver answers by vantage-point continent.
	GeoDNS bool
	// Anycast marks providers using anycast (Amazon, Siemens).
	Anycast bool

	Discloses Disclosure
	// IPv6ActiveOnly hides the v6 servers from the hitlist so only
	// active DNS finds them (Alibaba's few v6 endpoints, Figure 3).
	IPv6ActiveOnly bool
	// HyphenatedRegions restricts footprint sampling to hyphenated
	// region codes (see Footprint).
	HyphenatedRegions bool
}

// StudyDays returns the paper's primary study period: Feb 28 to Mar 7,
// 2022 (8 daily snapshots).
func StudyDays() []time.Time {
	start := time.Date(2022, 2, 28, 0, 0, 0, 0, time.UTC)
	days := make([]time.Time, 8)
	for i := range days {
		days[i] = start.AddDate(0, 0, i)
	}
	return days
}

// OutageDays returns the December 2021 pre-study week containing the AWS
// us-east-1 outage of Dec 7 (Section 6.1).
func OutageDays() []time.Time {
	start := time.Date(2021, 12, 3, 0, 0, 0, 0, time.UTC)
	days := make([]time.Time, 8)
	for i := range days {
		days[i] = start.AddDate(0, 0, i)
	}
	return days
}

// Cloud AS identities used for PR deployments.
const (
	CloudAWS     = "aws"
	CloudAzure   = "azure"
	CloudAlibaba = "alibaba-cloud"
	CloudAkamai  = "akamai"
)

func ep(port uint16, p proto.Protocol, pol iotserver.TLSPolicy) EndpointSpec {
	return EndpointSpec{Port: port, Transport: p.DefaultTransport(), Protocol: p, Policy: pol}
}

// Specs returns the ground-truth configuration for the 16 providers of
// Table 1. Counts are the Scale=1 targets; Figure 3's per-provider IP
// totals calibrate V4Servers/V6Servers.
func Specs() []Spec {
	defC := iotserver.PolicyDefaultCert
	sni := iotserver.PolicyRequireSNI
	mtls := iotserver.PolicyRequireClientCert
	none := iotserver.PolicyNone

	return []Spec{
		{
			ID: "alibaba", Name: "Alibaba IoT", Alias: "T4", SLD: "aliyuncs.com",
			Strategy: DI, OwnASNs: 2,
			Footprint: Footprint{Locations: 27, Mix: map[geo.Continent]float64{geo.Asia: 0.55, geo.Europe: 0.2, geo.NorthAmerica: 0.2, geo.Oceania: 0.05}},
			V4Servers: 134, V6Servers: 2, V4Slash24: 73, V6Slash56: 2,
			Classes: []ServerClass{
				// MQTT on 1883 plaintext and CoAP leave nothing for a
				// certificate scan; the HTTPS frontends demand SNI.
				{Name: "mqtt", Weight: 0.5, Endpoints: []EndpointSpec{ep(1883, proto.MQTT, none), ep(5682, proto.CoAP, none)}},
				{Name: "https", Weight: 0.45, Endpoints: []EndpointSpec{ep(443, proto.HTTPS, sni), ep(1883, proto.MQTT, none)}},
				{Name: "leak", Weight: 0.05, Endpoints: []EndpointSpec{ep(443, proto.HTTPS, defC)}},
			},
			Scheme: NameHashRegion, NameLabel: "iot-as-mqtt", ServersPerName: 2,
			PDNSNameFrac: 0.9, PDNSAddrFrac: 0.55, ChurnDaily: 0.004,
			GeoDNS: true, IPv6ActiveOnly: true,
		},
		{
			ID: "amazon", Name: "Amazon IoT", Alias: "T1", SLD: "amazonaws.com",
			Strategy: DI, OwnASNs: 4,
			Footprint: Footprint{Locations: 18, Mix: map[geo.Continent]float64{geo.NorthAmerica: 0.67, geo.Europe: 0.24, geo.Asia: 0.07, geo.SouthAmerica: 0.02}},
			V4Servers: 8620, V6Servers: 4680, V4Slash24: 9000, V6Slash56: 20,
			HyphenatedRegions: true,
			Classes: []ServerClass{
				{Name: "dual", Weight: 0.62, Endpoints: []EndpointSpec{ep(443, proto.HTTPS, defC), ep(8883, proto.MQTTS, mtls), ep(8443, proto.HTTPS, defC)}},
				{Name: "mqtt-only", Weight: 0.3, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, mtls), ep(443, proto.MQTTS, mtls)}},
				{Name: "web", Weight: 0.08, Endpoints: []EndpointSpec{ep(443, proto.HTTPS, defC)}},
			},
			Scheme: NameHashRegion, NameLabel: "iot", ServersPerName: 8,
			PDNSNameFrac: 0.92, PDNSAddrFrac: 0.6, ChurnDaily: 0.035,
			GeoDNS: true, Anycast: true,
		},
		{
			ID: "baidu", Name: "Baidu IoT", Alias: "O3", SLD: "baidubce.com",
			Strategy: DI, OwnASNs: 2,
			Footprint: Footprint{Explicit: []string{"cn-north-1", "cn-south-1"}},
			V4Servers: 60, V6Servers: 1, V4Slash24: 26, V6Slash56: 1,
			Classes: []ServerClass{
				{Name: "std", Weight: 0.8, Endpoints: []EndpointSpec{ep(1883, proto.MQTT, none), ep(1884, proto.MQTT, none), ep(443, proto.HTTPS, defC), ep(80, proto.HTTP, none), ep(5683, proto.CoAP, none), ep(5682, proto.CoAP, none)}},
				{Name: "plain", Weight: 0.2, Endpoints: []EndpointSpec{ep(1883, proto.MQTT, none), ep(80, proto.HTTP, none)}},
			},
			Scheme: NameHashRegion, NameLabel: "iot", ServersPerName: 3,
			PDNSNameFrac: 0.85, PDNSAddrFrac: 0.8, ChurnDaily: 0.003,
		},
		{
			ID: "bosch", Name: "Bosch IoT Hub", Alias: "D1", SLD: "bosch-iot-hub.com",
			Strategy: PR, OwnASNs: 0, CloudHosts: []string{CloudAWS},
			Footprint: Footprint{Explicit: []string{"eu-central-1"}},
			V4Servers: 162, V6Servers: 0, V4Slash24: 290, V6Slash56: 0,
			Classes: []ServerClass{
				{Name: "dual", Weight: 0.6, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, defC), ep(443, proto.HTTPS, defC), ep(5671, proto.AMQPS, defC), ep(5684, proto.CoAPS, none)}},
				{Name: "mqtt-mtls", Weight: 0.4, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, mtls), ep(5671, proto.AMQPS, mtls)}},
			},
			Scheme: NameCustomer, ServersPerName: 2,
			PDNSNameFrac: 0.85, PDNSAddrFrac: 0.55, ChurnDaily: 0.045,
		},
		{
			ID: "cisco", Name: "Cisco Kinetic", Alias: "D2", SLD: "ciscokinetic.io",
			Strategy: PR, OwnASNs: 0, CloudHosts: []string{CloudAWS},
			CloudASCount: map[string]int{CloudAWS: 2},
			Footprint:    Footprint{Locations: 4, Mix: map[geo.Continent]float64{geo.Europe: 0.5, geo.NorthAmerica: 0.5}},
			V4Servers:    20, V6Servers: 0, V4Slash24: 14, V6Slash56: 0,
			Classes: []ServerClass{
				{Name: "std", Weight: 0.7, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, defC), ep(443, proto.MQTTS, defC), ep(9123, proto.Agnostic, none)}},
				{Name: "tunnel", Weight: 0.3, Endpoints: []EndpointSpec{ep(9123, proto.Agnostic, none), ep(9124, proto.Agnostic, none)}},
			},
			Scheme: NameCustomer, ServersPerName: 1,
			// Cisco publishes its gateway IPs; its few tenant FQDNs are
			// all well-known to the sensors (the §3.4 full-coverage
			// result depends on it).
			PDNSNameFrac: 1.0, PDNSAddrFrac: 0.6, ChurnDaily: 0.01,
			Discloses: DiscloseIPs,
		},
		{
			ID: "fujitsu", Name: "Fujitsu IoT", Alias: "O4", SLD: "paas.cloud.global.fujitsu.com",
			Strategy: DI, OwnASNs: 1,
			Footprint: Footprint{Explicit: []string{"ap-northeast-1", "ap-northeast-3"}},
			V4Servers: 5, V6Servers: 0, V4Slash24: 2, V6Slash56: 0,
			Classes: []ServerClass{
				{Name: "std", Weight: 1, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, defC), ep(443, proto.HTTPS, defC)}},
			},
			Scheme: NameRegionFixed, NameLabel: "iot", ServersPerName: 3,
			PDNSNameFrac: 0.9, PDNSAddrFrac: 0.9, ChurnDaily: 0.002,
		},
		{
			ID: "google", Name: "Google IoT core", Alias: "T2", SLD: "googleapis.com",
			Strategy: DI, OwnASNs: 1,
			Footprint: Footprint{Locations: 77, Mix: map[geo.Continent]float64{geo.NorthAmerica: 0.35, geo.Europe: 0.33, geo.Asia: 0.22, geo.SouthAmerica: 0.05, geo.Oceania: 0.05}},
			V4Servers: 219, V6Servers: 90, V4Slash24: 114, V6Slash56: 11,
			Classes: []ServerClass{
				// SNI everywhere: certless scans see almost nothing
				// (Section 3.5: "we identify less than 2% of the Google
				// IPs" via Censys).
				{Name: "mqtt", Weight: 0.58, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, sni), ep(443, proto.MQTTS, sni)}},
				{Name: "web-shared", Weight: 0.4, Shared: true, Endpoints: []EndpointSpec{ep(443, proto.HTTPS, sni)}},
				{Name: "leak", Weight: 0.02, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, defC)}},
			},
			Scheme: NameFixedGlobal, FixedNames: []string{"mqtt.googleapis.com", "cloudiotdevice.googleapis.com"},
			PDNSNameFrac: 1.0, PDNSAddrFrac: 0.75, ChurnDaily: 0.004,
			GeoDNS: true,
		},
		{
			ID: "huawei", Name: "Huawei IoT", Alias: "O5", SLD: "myhuaweicloud.com",
			Strategy: DI, OwnASNs: 1,
			Footprint: Footprint{Explicit: []string{"cn-north-1", "cn-shanghai"}},
			V4Servers: 26, V6Servers: 0, V4Slash24: 26, V6Slash56: 0,
			Classes: []ServerClass{
				{Name: "std", Weight: 0.65, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, defC), ep(443, proto.MQTTS, defC), ep(8943, proto.HTTPS, defC)}},
				{Name: "coap", Weight: 0.35, Endpoints: []EndpointSpec{ep(5684, proto.CoAPS, none), ep(8883, proto.MQTTS, mtls)}},
			},
			Scheme: NameHashRegion, NameLabel: "iot-mqtts", ServersPerName: 2,
			PDNSNameFrac: 0.8, PDNSAddrFrac: 0.55, ChurnDaily: 0.003,
		},
		{
			ID: "ibm", Name: "IBM IoT", Alias: "O1", SLD: "internetofthings.ibmcloud.com",
			Strategy: DI, OwnASNs: 2,
			Footprint: Footprint{Locations: 12, Mix: map[geo.Continent]float64{geo.NorthAmerica: 0.45, geo.Europe: 0.35, geo.Asia: 0.2}},
			V4Servers: 250, V6Servers: 0, V4Slash24: 116, V6Slash56: 0,
			Classes: []ServerClass{
				{Name: "std", Weight: 0.72, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, defC), ep(1883, proto.MQTT, none), ep(443, proto.HTTPS, defC), ep(80, proto.HTTP, none)}},
				{Name: "mqtt-mtls", Weight: 0.28, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, mtls)}},
			},
			Scheme: NameCustomer, NameLabel: "messaging", ServersPerName: 2,
			PDNSNameFrac: 0.85, PDNSAddrFrac: 0.6, ChurnDaily: 0.006,
		},
		{
			ID: "microsoft", Name: "Microsoft Azure IoT Hub", Alias: "T3", SLD: "azure-devices.net",
			Strategy: DI, OwnASNs: 1,
			Footprint: Footprint{Locations: 39, Mix: map[geo.Continent]float64{geo.NorthAmerica: 0.4, geo.Europe: 0.33, geo.Asia: 0.2, geo.SouthAmerica: 0.03, geo.Oceania: 0.04}},
			V4Servers: 484, V6Servers: 0, V4Slash24: 282, V6Slash56: 0,
			Classes: []ServerClass{
				// Default certificates everywhere: Censys alone finds
				// them all (Section 3.5).
				{Name: "std", Weight: 1, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, defC), ep(443, proto.HTTPS, defC), ep(5671, proto.AMQPS, defC)}},
			},
			Scheme: NameCustomer, ServersPerName: 4,
			PDNSNameFrac: 0.35, PDNSAddrFrac: 0.5, ChurnDaily: 0.004,
			Discloses: DisclosePrefixes,
		},
		{
			ID: "oracle", Name: "Oracle IoT", Alias: "O2", SLD: "oraclecloud.com",
			Strategy: DIPR, OwnASNs: 2, CloudHosts: []string{CloudAkamai},
			Footprint: Footprint{Locations: 10, Mix: map[geo.Continent]float64{geo.NorthAmerica: 0.5, geo.Europe: 0.3, geo.Asia: 0.2}},
			V4Servers: 502, V6Servers: 0, V4Slash24: 67, V6Slash56: 0,
			Classes: []ServerClass{
				{Name: "std", Weight: 0.8, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, defC), ep(443, proto.HTTPS, defC)}},
				{Name: "cdn-shared", Weight: 0.2, Shared: true, Endpoints: []EndpointSpec{ep(443, proto.HTTPS, defC)}},
			},
			Scheme: NameHashRegion, NameLabel: "iot", ServersPerName: 4,
			PDNSNameFrac: 0.8, PDNSAddrFrac: 0.65, ChurnDaily: 0.008,
		},
		{
			ID: "ptc", Name: "PTC ThingWorx", Alias: "D4", SLD: "cloud.thingworx.com",
			Strategy: PR, OwnASNs: 0, CloudHosts: []string{CloudAWS, CloudAzure},
			CloudASCount: map[string]int{CloudAWS: 2, CloudAzure: 1},
			Footprint:    Footprint{Locations: 10, Mix: map[geo.Continent]float64{geo.NorthAmerica: 0.5, geo.Europe: 0.35, geo.Asia: 0.15}},
			V4Servers:    917, V6Servers: 0, V4Slash24: 881, V6Slash56: 0,
			Classes: []ServerClass{
				{Name: "std", Weight: 0.55, Endpoints: []EndpointSpec{ep(443, proto.HTTPS, defC), ep(61616, proto.ActiveMQ, none)}},
				{Name: "broker", Weight: 0.45, Endpoints: []EndpointSpec{ep(61616, proto.ActiveMQ, none), ep(8883, proto.MQTTS, mtls)}},
			},
			Scheme: NameCustomer, ServersPerName: 3,
			PDNSNameFrac: 0.85, PDNSAddrFrac: 0.6, ChurnDaily: 0.012,
		},
		{
			ID: "sap", Name: "SAP IoT", Alias: "D5", SLD: "iot.sap",
			Strategy: PR, OwnASNs: 0, CloudHosts: []string{CloudAWS, CloudAzure, CloudAlibaba},
			CloudASCount: map[string]int{CloudAWS: 3, CloudAzure: 2, CloudAlibaba: 1},
			Footprint:    Footprint{Locations: 7, Mix: map[geo.Continent]float64{geo.Europe: 0.55, geo.NorthAmerica: 0.3, geo.Asia: 0.15}},
			V4Servers:    3030, V6Servers: 0, V4Slash24: 2929, V6Slash56: 0,
			Classes: []ServerClass{
				{Name: "std", Weight: 1, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, defC), ep(443, proto.HTTPS, defC)}},
			},
			Scheme: NameCustomer, ServersPerName: 6,
			PDNSNameFrac: 0.3, PDNSAddrFrac: 0.5, ChurnDaily: 0.05,
		},
		{
			ID: "siemens", Name: "Siemens Mindsphere", Alias: "D3", SLD: "mindsphere.io",
			Strategy: PR, OwnASNs: 0, CloudHosts: []string{CloudAWS, CloudAzure, CloudAlibaba},
			CloudASCount: map[string]int{CloudAWS: 2, CloudAzure: 1, CloudAlibaba: 1},
			Footprint:    Footprint{Explicit: []string{"eu-central-1", "us-east-1", "cn-shanghai"}},
			V4Servers:    112, V6Servers: 13, V4Slash24: 126, V6Slash56: 1,
			Classes: []ServerClass{
				// The EU estate fronts devices with mTLS MQTT and
				// SNI-guarded web entry points: effectively invisible to
				// certificate scans (Figure 7's D3).
				{Name: "mqtt-mtls", Weight: 0.62, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, mtls), ep(443, proto.HTTPS, sni), ep(4840, proto.OPCUA, none)}},
				{Name: "web", Weight: 0.28, Endpoints: []EndpointSpec{ep(443, proto.HTTPS, sni)}},
				{Name: "leak", Weight: 0.1, Endpoints: []EndpointSpec{ep(443, proto.HTTPS, defC)}},
			},
			Scheme: NameRegionCustomer, ServersPerName: 2,
			// Siemens' handful of customer FQDNs are popular enough that
			// the sensor network essentially always sees them — required
			// for the §3.4 "identified all publicly listed IPs" result.
			PDNSNameFrac: 1.0, PDNSAddrFrac: 0.55, ChurnDaily: 0.04,
			Anycast: true, Discloses: DiscloseIPs,
		},
		{
			ID: "sierra", Name: "Sierra Wireless", Alias: "D6", SLD: "airvantage.net",
			Strategy: PR, OwnASNs: 0, CloudHosts: []string{CloudAWS},
			CloudASCount: map[string]int{CloudAWS: 4},
			Footprint:    Footprint{Explicit: []string{"us-west-2", "eu-west-1", "ap-southeast-1", "ca-central-1"}},
			V4Servers:    12, V6Servers: 46, V4Slash24: 7, V6Slash56: 2,
			Classes: []ServerClass{
				// Devices authenticate over mTLS MQTT; only CoAP and
				// plaintext remain for scans — no certificates.
				{Name: "mqtt-mtls", Weight: 0.8, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, mtls), ep(1883, proto.MQTT, none), ep(5682, proto.CoAP, none), ep(5686, proto.CoAP, none)}},
				{Name: "web", Weight: 0.2, Endpoints: []EndpointSpec{ep(443, proto.HTTPS, sni), ep(80, proto.HTTP, none)}},
			},
			Scheme: NameRegionFixed, NameLabel: "", ServersPerName: 4,
			PDNSNameFrac: 0.95, PDNSAddrFrac: 0.5, ChurnDaily: 0.015,
		},
		{
			ID: "tencent", Name: "Tencent IoT", Alias: "O6", SLD: "tencentdevices.com",
			Strategy: DI, OwnASNs: 5,
			Footprint: Footprint{Locations: 5, Mix: map[geo.Continent]float64{geo.Asia: 0.7, geo.Europe: 0.15, geo.NorthAmerica: 0.15}},
			V4Servers: 53, V6Servers: 2, V4Slash24: 47, V6Slash56: 2,
			Classes: []ServerClass{
				{Name: "std", Weight: 1, Endpoints: []EndpointSpec{ep(8883, proto.MQTTS, defC), ep(1883, proto.MQTT, none), ep(443, proto.HTTPS, defC), ep(80, proto.HTTP, none), ep(5684, proto.CoAPS, none)}},
			},
			Scheme: NameCustomer, NameLabel: "iotcloud", ServersPerName: 2,
			PDNSNameFrac: 0.3, PDNSAddrFrac: 0.5, ChurnDaily: 0.004,
		},
	}
}

package proto

import "testing"

func TestProtocolStrings(t *testing.T) {
	cases := map[Protocol]string{
		MQTT: "MQTT", MQTTS: "MQTTS", HTTP: "HTTP", HTTPS: "HTTPS",
		AMQPS: "AMQPS", CoAP: "CoAP", CoAPS: "CoAPS", OPCUA: "OPC-UA",
		ActiveMQ: "ActiveMQ", Agnostic: "Agnostic", Protocol(0): "Unknown",
		Protocol(99): "Unknown",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
}

func TestTLSCapable(t *testing.T) {
	for _, p := range []Protocol{MQTTS, HTTPS, AMQPS} {
		if !p.TLSCapable() {
			t.Errorf("%v should be TLS capable", p)
		}
	}
	for _, p := range []Protocol{MQTT, HTTP, CoAP, ActiveMQ, Agnostic} {
		if p.TLSCapable() {
			t.Errorf("%v should not be TLS capable", p)
		}
	}
}

func TestDefaultTransport(t *testing.T) {
	if CoAP.DefaultTransport() != UDP || CoAPS.DefaultTransport() != UDP {
		t.Fatal("CoAP should default to UDP")
	}
	if MQTTS.DefaultTransport() != TCP || HTTPS.DefaultTransport() != TCP {
		t.Fatal("TCP protocols misrouted")
	}
	if TCP.String() != "TCP" || UDP.String() != "UDP" {
		t.Fatal("Transport.String")
	}
}

func TestPortKeyString(t *testing.T) {
	k := PortKey{Transport: TCP, Port: 8883}
	if k.String() != "TCP/8883" {
		t.Fatalf("String = %s", k)
	}
	u := PortKey{Transport: UDP, Port: 5684}
	if u.String() != "UDP/5684" {
		t.Fatalf("String = %s", u)
	}
}

func TestIANAName(t *testing.T) {
	cases := map[PortKey]string{
		{TCP, 8883}:  "TCP/8883 (MQTTS)",
		{TCP, 443}:   "TCP/443 (Web)",
		{TCP, 80}:    "TCP/80 (Web)",
		{TCP, 5671}:  "TCP/5671 (AMQP)",
		{TCP, 1883}:  "TCP/1883 (MQTT)",
		{UDP, 5684}:  "UDP/5684 (CoAP)",
		{UDP, 5683}:  "UDP/5683 (CoAP)",
		{TCP, 61616}: "TCP/61616",
		{UDP, 30023}: "UDP/30023",
	}
	for k, want := range cases {
		if got := IANAName(k); got != want {
			t.Errorf("IANAName(%v) = %q, want %q", k, got, want)
		}
	}
}

// PortKey must be usable as a map key with value semantics (the whole
// Figure 11 accounting depends on it).
func TestPortKeyAsMapKey(t *testing.T) {
	m := map[PortKey]int{}
	m[PortKey{TCP, 443}]++
	m[PortKey{TCP, 443}]++
	m[PortKey{UDP, 443}]++
	if m[PortKey{TCP, 443}] != 2 || m[PortKey{UDP, 443}] != 1 {
		t.Fatalf("map = %v", m)
	}
}

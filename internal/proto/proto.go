// Package proto defines the application-protocol vocabulary of the study:
// the protocols IoT backends expose (Table 1's "Protocols (Ports)"
// column) and the transport/port bookkeeping the traffic analysis uses
// (Section 5.5's port-usage breakdown).
package proto

import "fmt"

// Protocol identifies an application protocol an IoT gateway endpoint
// speaks.
type Protocol uint8

// Application protocols observed across the 16 providers.
const (
	MQTT  Protocol = iota + 1 // plaintext MQTT; the zero Protocol is unidentified
	MQTTS                     // MQTT over TLS
	HTTP
	HTTPS
	AMQPS // AMQP 1.0 over TLS
	CoAP  // CoAP over UDP
	CoAPS // CoAP over DTLS
	OPCUA // Siemens' OPC-UA
	ActiveMQ
	Agnostic // PTC's protocol-agnostic tunnel
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case MQTT:
		return "MQTT"
	case MQTTS:
		return "MQTTS"
	case HTTP:
		return "HTTP"
	case HTTPS:
		return "HTTPS"
	case AMQPS:
		return "AMQPS"
	case CoAP:
		return "CoAP"
	case CoAPS:
		return "CoAPS"
	case OPCUA:
		return "OPC-UA"
	case ActiveMQ:
		return "ActiveMQ"
	case Agnostic:
		return "Agnostic"
	default:
		return "Unknown"
	}
}

// Transport is the L4 protocol.
type Transport uint8

// Transports.
const (
	TCP Transport = iota
	UDP
)

// String names the transport.
func (t Transport) String() string {
	if t == UDP {
		return "UDP"
	}
	return "TCP"
}

// PortKey identifies one (transport, port) pair — the row unit of
// Figure 11's port heatmap.
type PortKey struct {
	Transport Transport
	Port      uint16
}

// String renders e.g. "TCP/8883".
func (k PortKey) String() string { return fmt.Sprintf("%s/%d", k.Transport, k.Port) }

// TLSCapable reports whether the protocol runs a TLS handshake a scanner
// can harvest a certificate from.
func (p Protocol) TLSCapable() bool {
	switch p {
	case MQTTS, HTTPS, AMQPS:
		return true
	default:
		return false
	}
}

// DefaultTransport returns the transport the protocol conventionally uses.
func (p Protocol) DefaultTransport() Transport {
	switch p {
	case CoAP, CoAPS:
		return UDP
	default:
		return TCP
	}
}

// Well-known IANA assignments referenced throughout the paper.
const (
	PortHTTP  = 80
	PortHTTPS = 443
	PortMQTT  = 1883
	PortMQTTS = 8883
	PortAMQPS = 5671
	PortCoAP  = 5683
	PortCoAPS = 5684
)

// IANAName labels a PortKey the way Figure 11's y-axis does, e.g.
// "TCP/8883 (MQTTS)"; unassigned ports carry no suffix.
func IANAName(k PortKey) string {
	var label string
	switch {
	case k.Transport == TCP && k.Port == PortMQTTS:
		label = "MQTTS"
	case k.Transport == TCP && k.Port == PortHTTPS:
		label = "Web"
	case k.Transport == TCP && k.Port == PortAMQPS:
		label = "AMQP"
	case k.Transport == TCP && k.Port == PortMQTT:
		label = "MQTT"
	case k.Transport == UDP && k.Port == PortCoAPS:
		label = "CoAP"
	case k.Transport == TCP && k.Port == PortHTTP:
		label = "Web"
	case k.Transport == UDP && k.Port == PortCoAP:
		label = "CoAP"
	}
	if label == "" {
		return k.String()
	}
	return fmt.Sprintf("%s (%s)", k.String(), label)
}

package coap

import (
	"fmt"
)

// WellKnownCore is the discovery resource scanners GET to fingerprint a
// CoAP server (RFC 6690).
const WellKnownCore = "/.well-known/core"

// Handler produces a response message for a request. Returning nil drops
// the request (as a NON sink would).
type Handler func(req *Message) *Message

// DiscoveryHandler answers GET /.well-known/core with a link-format
// resource list and 4.04 for everything else — the behaviour of a typical
// IoT gateway front door.
func DiscoveryHandler(resources []string) Handler {
	var links []byte
	for i, r := range resources {
		if i > 0 {
			links = append(links, ',')
		}
		links = append(links, fmt.Sprintf("<%s>", r)...)
	}
	return func(req *Message) *Message {
		resp := &Message{
			Type:      Acknowledgement,
			MessageID: req.MessageID,
			Token:     req.Token,
		}
		if req.Type == NonConfirmable {
			resp.Type = NonConfirmable
		}
		if req.Code == CodeGET && req.Path() == WellKnownCore {
			resp.Code = CodeContent
			resp.Options = []Option{{Number: OptContentFormat, Value: []byte{40}}} // application/link-format
			resp.Payload = append([]byte(nil), links...)
			return resp
		}
		resp.Code = CodeNotFound
		return resp
	}
}

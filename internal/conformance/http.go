package conformance

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The harness talks to daemons over their debug HTTP endpoints; calls
// are local, so timeouts are short — except moves, which block on a
// full SNMP round trip plus Central's event loop.
const (
	httpTimeout     = 5 * time.Second
	httpMoveTimeout = 45 * time.Second
)

// httpGet fetches url, requires a 200, and decodes the JSON body into v
// (a nil v discards it).
func httpGet(url string, v any, timeout time.Duration) error {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, body[:min(len(body), 200)])
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}

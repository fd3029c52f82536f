package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// Peers routes cells across replica processes with rendezvous (highest
// random weight) hashing: every replica, given the same replica list
// and the same cell digest, independently picks the same owner — no
// coordinator, no ring state to rebalance. A non-owner forwards the
// request to the owner with forwarded=1 (the loop guard: a forwarded
// request is always served locally); if the owner is unreachable the
// forwarder computes locally instead, so a dead replica degrades
// throughput, never availability — work stealing across processes.
type Peers struct {
	// Self is this replica's advertised base URL; it must appear in All
	// byte-identically.
	Self string
	// All lists every replica's base URL, self included.
	All []string
	// Client issues forwards. The zero value gets a 2-minute timeout,
	// long enough for a cold cell to simulate on the owner.
	Client *http.Client
}

// NewPeers builds the routing table. self is added to all if missing.
func NewPeers(self string, all []string) *Peers {
	found := false
	for _, p := range all {
		if p == self {
			found = true
			break
		}
	}
	if !found {
		all = append([]string{self}, all...)
	}
	return &Peers{Self: self, All: all, Client: &http.Client{Timeout: 2 * time.Minute}}
}

// Owner returns the replica owning digest (hex): the peer whose
// score(peer, digest) is highest, ties broken by URL order so the
// choice is total.
func (p *Peers) Owner(digest string) string {
	best, bestScore := "", uint64(0)
	for _, peer := range p.All {
		s := rendezvousScore(peer, digest)
		if best == "" || s > bestScore || (s == bestScore && peer < best) {
			best, bestScore = peer, s
		}
	}
	return best
}

// rendezvousScore hashes (peer, digest) into a 64-bit weight.
func rendezvousScore(peer, digest string) uint64 {
	h := sha256.Sum256([]byte(peer + "|" + digest))
	return binary.LittleEndian.Uint64(h[:8])
}

// Forward replays the query against owner's endpoint with the
// forwarded=1 loop guard and returns the response body. Any non-200
// status is an error: the caller falls back to local compute.
func (p *Peers) Forward(ctx context.Context, owner, path string, q url.Values) ([]byte, error) {
	fq := url.Values{}
	for k, vs := range q {
		fq[k] = vs
	}
	fq.Set("forwarded", "1")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+path+"?"+fq.Encode(), nil)
	if err != nil {
		return nil, err
	}
	client := p.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: peer %s returned %d", owner, resp.StatusCode)
	}
	return body, nil
}

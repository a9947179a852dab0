// api.go is the typed surface over Client.Call: one method per
// opcode, encoding through pooled scratch so the per-call payload
// build does not allocate once the pool is warm. The codecs stay
// private to the package; callers speak wal.Record, model IDs, and
// the public fairhealth result types.
package transport

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"fairhealth"
	"fairhealth/internal/model"
	"fairhealth/internal/wal"
)

// Hello runs the config-fingerprint handshake and reports the
// worker's applied WAL sequence and document count.
func (c *Client) Hello(ctx context.Context, fingerprint string) (appliedSeq uint64, docs int, err error) {
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendHelloReq(*buf, fingerprint)
	resp, err := c.Call(ctx, opHello, *buf)
	if err != nil {
		return 0, 0, err
	}
	return readHelloResp(resp)
}

// Apply replicates one WAL record (which must carry its sequence
// number) to the peer.
func (c *Client) Apply(ctx context.Context, rec wal.Record) error {
	buf := getBuf()
	defer putBuf(buf)
	var err error
	*buf, err = appendRecord(*buf, rec)
	if err != nil {
		return err
	}
	_, err = c.Call(ctx, opApply, *buf)
	return err
}

// Catchup ships a compressed block of journal records and returns the
// peer's applied sequence afterwards.
func (c *Client) Catchup(ctx context.Context, recs []wal.Record) (appliedSeq uint64, err error) {
	buf := getBuf()
	defer putBuf(buf)
	var rawLen int
	*buf, rawLen, err = appendCatchup(*buf, recs)
	if err != nil {
		return 0, err
	}
	resp, err := c.Call(ctx, opCatchup, *buf)
	if err != nil {
		return 0, err
	}
	if len(resp) != 8 {
		return 0, fmt.Errorf("transport: catch-up reply is %d bytes, want 8", len(resp))
	}
	c.stats.CatchupBlocks.Add(1)
	c.stats.CatchupRecords.Add(uint64(len(recs)))
	c.stats.CatchupRawBytes.Add(uint64(rawLen))
	c.stats.CatchupWireBytes.Add(uint64(len(*buf)))
	return binary.BigEndian.Uint64(resp), nil
}

// Document ships one corpus document.
func (c *Client) Document(ctx context.Context, id, title, body string) error {
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendDocument(*buf, id, title, body)
	_, err := c.Call(ctx, opDocument, *buf)
	return err
}

// Relevances runs the coalesced fan-out: every member in one RPC,
// replies decoded into out (which must have len(members); position i
// answers members[i], scores carrying their exact bit patterns).
func (c *Client) Relevances(ctx context.Context, scorer string, approx bool, members []model.UserID, out []map[model.ItemID]float64) error {
	if len(out) != len(members) {
		return fmt.Errorf("transport: relevances out slice has %d slots for %d members", len(out), len(members))
	}
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendRelevancesReq(*buf, scorer, approx, members)
	resp, err := c.Call(ctx, opRelevances, *buf)
	if err != nil {
		return err
	}
	c.stats.RelevancesRPCs.Add(1)
	c.stats.CoalescedMembers.Add(uint64(len(members)))
	return readRelevancesResp(resp, out)
}

// Recommend fetches the user's personal top-k from the peer.
func (c *Client) Recommend(ctx context.Context, user string, k int) ([]fairhealth.Recommendation, error) {
	return userOp[[]fairhealth.Recommendation](ctx, c, userOpRecommend, user, "", k, 0)
}

// PeersOf fetches the user's peer set from the peer.
func (c *Client) PeersOf(ctx context.Context, user string) ([]fairhealth.Peer, error) {
	return userOp[[]fairhealth.Peer](ctx, c, userOpPeers, user, "", 0, 0)
}

// SearchPersonalized runs a profile-boosted document search on the
// peer owning user.
func (c *Client) SearchPersonalized(ctx context.Context, user, query string, k int, boost float64) ([]fairhealth.SearchResult, error) {
	return userOp[[]fairhealth.SearchResult](ctx, c, userOpSearch, user, query, k, boost)
}

func userOp[T any](ctx context.Context, c *Client, kind byte, user, query string, k int, boost float64) (T, error) {
	var out T
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendUserOpReq(*buf, kind, user, query, k, boost)
	resp, err := c.Call(ctx, opUserOp, *buf)
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(resp, &out)
}

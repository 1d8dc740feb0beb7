package gateway

import (
	"fmt"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

// ResultKey is the object key a tenant's job should publish its output
// under: a per-tenant prefix in the gateway's result bucket. The
// prefix is also the authorization boundary ServeResult enforces.
func (g *Gateway) ResultKey(tenantID, name string) string {
	return tenantID + "/" + name
}

// ServeResult delivers a byte range of a tenant's result object,
// reading straight off the object store's streaming path — the gateway
// authorizes and hands out bytes, it never re-buffers whole results.
// off/n follow ReadRange semantics: the range clamps to the object and
// n < 0 reads through the end. The credential must authenticate to the
// tenant owning the key's prefix; anything else is ErrForbidden.
func (g *Gateway) ServeResult(p *des.Proc, cred Credential, key string, off, n int64) (payload.Payload, error) {
	if g.closed {
		return nil, ErrGatewayClosed
	}
	t, err := g.admitTenant(cred)
	if err != nil {
		return nil, err
	}
	prefix := t.id + "/"
	if len(key) <= len(prefix) || key[:len(prefix)] != prefix {
		return nil, fmt.Errorf("gateway: tenant %q reading %q: %w", t.id, key, ErrForbidden)
	}
	pl, err := g.store.ReadRange(p, resultBucket, key, off, n)
	if err != nil {
		return nil, err
	}
	t.stats.BytesServed += pl.Size()
	return pl, nil
}

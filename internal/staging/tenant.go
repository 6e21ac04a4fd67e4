package staging

import (
	"errors"
	"fmt"
	"strings"
)

// Multi-tenant namespaces. A tenant id is prefixed into the wire codec's
// variable-key space — "tenant/var" — so N workflows can share one staging
// service without colliding or reading across namespaces. The separator
// '/' is reserved: no workflow variable name contains it, and tenant ids
// are restricted to a strict charset that excludes it along with the
// pool's replica marker '#' and the space's version marker '@', so a
// hostile tenant id can never be spliced into another tenant's key space.
// Servers decode the prefix to attribute per-tenant usage and enforce
// per-tenant quotas (see Space.SetTenantQuota).

// tenantSep separates the tenant prefix from the variable name.
const tenantSep = "/"

// maxTenantLen bounds tenant ids so a qualified key plus the pool's
// replica suffix stays well inside the wire's name bound (maxVarName).
const maxTenantLen = 64

// ErrBadTenant reports a tenant id outside the accepted charset
// ([A-Za-z0-9._-], 1..64 bytes).
var ErrBadTenant = errors.New("staging: invalid tenant id")

// ErrQuotaExceeded reports a put rejected server-side because it would
// push the tenant past its byte or block quota. Like ErrNoMemory it is an
// application-level outcome, not a transport failure: clients do not
// retry it and pool breakers do not trip on it.
var ErrQuotaExceeded = errors.New("staging: tenant quota exceeded")

// TenantQuota caps what one tenant may hold in a Space. A zero field leaves
// that dimension unlimited.
type TenantQuota struct {
	MaxBytes  int64
	MaxBlocks int
}

// ValidTenant reports whether id is an acceptable tenant id: 1..64 bytes
// of [A-Za-z0-9._-]. The charset deliberately excludes the tenant
// separator '/', the replica marker '#', and the version marker '@'.
func ValidTenant(id string) bool {
	if len(id) == 0 || len(id) > maxTenantLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// TenantVar qualifies varName into tenant's namespace. The tenant id must
// pass ValidTenant and varName must be non-empty; SplitTenantVar inverts
// the encoding exactly (encode∘decode identity, fuzzed by FuzzTenantKey).
func TenantVar(tenant, varName string) (string, error) {
	if !ValidTenant(tenant) {
		return "", fmt.Errorf("%w: %q", ErrBadTenant, tenant)
	}
	if varName == "" {
		return "", errors.New("staging: empty variable name")
	}
	return tenant + tenantSep + varName, nil
}

// SplitTenantVar splits a qualified key into its tenant and variable
// parts. ok is false when key carries no valid tenant prefix — no
// separator, an empty or hostile tenant part, or an empty variable part.
func SplitTenantVar(key string) (tenant, varName string, ok bool) {
	i := strings.Index(key, tenantSep)
	if i < 0 {
		return "", "", false
	}
	tenant, varName = key[:i], key[i+1:]
	if !ValidTenant(tenant) || varName == "" {
		return "", "", false
	}
	return tenant, varName, true
}

// TenantOf extracts the tenant a key belongs to, "" for untenanted keys.
func TenantOf(key string) string {
	tenant, _, ok := SplitTenantVar(key)
	if !ok {
		return ""
	}
	return tenant
}

// Tenant returns a handle on the same pool scoped to the given tenant id
// (see Pool): operations through it run in the tenant's namespace, over the
// pool every other handle shares. The receiver must be untenanted: stacking
// a tenant on an already-qualified handle would double-prefix every key.
func (p *Pool) Tenant(id string) (*Pool, error) {
	if !ValidTenant(id) {
		return nil, fmt.Errorf("%w: %q", ErrBadTenant, id)
	}
	if p.tenant != "" {
		return nil, fmt.Errorf("staging: pool is already scoped to tenant %q", p.tenant)
	}
	return &Pool{poolCore: p.poolCore, tenant: id}, nil
}

// owns reports whether a qualified variable name lies in the handle's
// namespace; an untenanted handle owns the whole pool.
func (p *Pool) owns(varName string) bool {
	return p.tenant == "" || TenantOf(varName) == p.tenant
}

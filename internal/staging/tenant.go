package staging

import (
	"errors"
	"fmt"
	"strings"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
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
// replica suffix stays well inside the wire codec's 256-byte name limit.
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

// FilterTenant returns the manifest entries belonging to tenant, keeping
// their qualified variable names. The per-tenant audit of a shared pool
// runs over this view: Pool.Audit(m.FilterTenant(t)) checks exactly the
// blocks tenant t recorded, nothing across the namespace boundary.
func (m Manifest) FilterTenant(tenant string) Manifest {
	var out Manifest
	for _, e := range m.Entries {
		if TenantOf(e.Var) == tenant {
			out.Entries = append(out.Entries, e)
		}
	}
	return out
}

// TenantView is one tenant's handle on a shared Pool: every operation is
// qualified into the tenant's namespace before it reaches the wire, so N
// concurrently running workflows can share one pool without colliding.
// It satisfies the workflow's StagingStore contract plus the health,
// transport-stats, and manifest faces; the event/span drain faces are
// deliberately absent — those are pool-level and owned by whoever stood
// the shared pool up, not by any single tenant's step barrier.
type TenantView struct {
	p      *Pool
	tenant string
}

// Tenant returns a view of the pool scoped to the given tenant id. The
// pool itself must be untenanted (PoolOptions.Tenant unset): stacking a
// view on an already-qualified pool would double-prefix every key.
func (p *Pool) Tenant(id string) (*TenantView, error) {
	if !ValidTenant(id) {
		return nil, fmt.Errorf("%w: %q", ErrBadTenant, id)
	}
	if p.tenant != "" {
		return nil, fmt.Errorf("staging: pool is already scoped to tenant %q", p.tenant)
	}
	return &TenantView{p: p, tenant: id}, nil
}

// TenantID returns the tenant this view is scoped to.
func (v *TenantView) TenantID() string { return v.tenant }

func (v *TenantView) qualify(varName string) (string, error) {
	return TenantVar(v.tenant, varName)
}

// Put stores a block under the tenant's namespace.
func (v *TenantView) Put(varName string, version int, d *field.BoxData) error {
	name, err := v.qualify(varName)
	if err != nil {
		return err
	}
	return v.p.Put(name, version, d)
}

// GetBlocks reads the tenant's blocks; other tenants' data is unreachable
// by construction.
func (v *TenantView) GetBlocks(varName string, version int, region grid.Box) ([]*field.BoxData, error) {
	name, err := v.qualify(varName)
	if err != nil {
		return nil, err
	}
	return v.p.GetBlocks(name, version, region)
}

// DropBefore evicts the tenant's old versions.
func (v *TenantView) DropBefore(varName string, version int) (int64, error) {
	name, err := v.qualify(varName)
	if err != nil {
		return 0, err
	}
	return v.p.DropBefore(name, version)
}

// HealthyEndpoints reports the shared pool's endpoint health.
func (v *TenantView) HealthyEndpoints() (healthy, total int) { return v.p.HealthyEndpoints() }

// TransportStats reports the shared pool's cumulative transport counters.
func (v *TenantView) TransportStats() (retries, reconnects int64) { return v.p.TransportStats() }

// Manifest snapshots the tenant's slice of the shared pool's live map.
func (v *TenantView) Manifest() Manifest {
	return v.p.Manifest().FilterTenant(v.tenant)
}

// RestoreManifest re-arms the tenant's entries in the shared pool's live
// map; entries outside the tenant's namespace are rejected rather than
// silently smuggled across the boundary.
func (v *TenantView) RestoreManifest(m Manifest) {
	var own Manifest
	for _, e := range m.Entries {
		if TenantOf(e.Var) == v.tenant {
			own.Entries = append(own.Entries, e)
		}
	}
	v.p.RestoreManifest(own)
}

// Audit checks the given manifest against the shared pool, restricted to
// the tenant's namespace.
func (v *TenantView) Audit(m Manifest) (missing int) {
	return v.p.Audit(m.FilterTenant(v.tenant))
}

// AuditManifest audits the tenant's current manifest.
func (v *TenantView) AuditManifest() (missing int) { return v.p.Audit(v.Manifest()) }

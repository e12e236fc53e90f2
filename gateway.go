package sdrad

import (
	"repro/internal/campaign"
)

// This file wires the campaign engine's multi-tenant gateway runner
// (internal/campaign gateway scenarios) to the production Runner
// backends, mirroring campaign.go's role for the single-tenant engine.
// cmd/sdrad-campaign's -gateway flag is the CLI around these.

// RunGatewayCampaign executes one multi-tenant gateway scenario against
// the real backends: weighted tenant arrivals admitted through a real
// gateway.Gateway (token buckets, quotas, circuit breaker, drain) in
// front of a campaign executor, in waves of cfg.Batch. Same cfg ⇒
// byte-identical GatewayTrace.JSON(). See DESIGN.md §12 for the
// tenant-locality argument the trace's determinism rests on.
func RunGatewayCampaign(sc campaign.GatewayScenario, cfg campaign.Config) (*campaign.GatewayTrace, error) {
	return campaign.RunGateway(sc, cfg, CampaignFactory())
}

// CheckGatewayIsolation runs the gateway isolation oracle against the
// real backends: each non-hostile tenant's per-arrival outcomes and
// survivor digest must be identical with and without the hostile
// tenants' traffic, serially at every worker count and batched at every
// worker-count × batch-size combination (defaults 1/4/8 × 8/32).
func CheckGatewayIsolation(sc campaign.GatewayScenario, cfg campaign.Config, workerCounts, batchSizes []int) ([]campaign.OracleResult, error) {
	return campaign.CheckIsolation(sc, cfg, CampaignFactory(), workerCounts, batchSizes)
}

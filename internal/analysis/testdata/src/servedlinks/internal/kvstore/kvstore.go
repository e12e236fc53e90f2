// Package kvstore is linked by the serving binary.
package kvstore

import (
	"servedlinks/internal/campaign"           // want `servedlinks/internal/kvstore imports servedlinks/internal/campaign, test machinery, and the serving binary servedlinks/cmd/sdrad-kvd links it`
	"servedlinks/internal/campaign/scenarios" // want `imports servedlinks/internal/campaign/scenarios, test machinery`
	"servedlinks/internal/fault"
)

// Serve serves; the fault import is allowed.
func Serve() {
	fault.Inject()
	campaign.Run(scenarios.All())
}

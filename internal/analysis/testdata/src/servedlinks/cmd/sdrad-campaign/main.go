// Command sdrad-campaign is not a serving binary: it may link the test
// machinery.
package main

import (
	"servedlinks/internal/attackgen"
	"servedlinks/internal/campaign"
	"servedlinks/internal/kvstore"
)

func main() {
	kvstore.Serve()
	campaign.Run(nil)
	attackgen.Run()
}

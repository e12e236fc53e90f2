// Package campaign is the fixture tree's test engine.
package campaign

// Run runs a campaign.
func Run(names []string) {}

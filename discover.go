package iotmap

import (
	"context"

	"iotmap/internal/analysis"
	"iotmap/internal/certmodel"
	"iotmap/internal/core/discovery"
	"iotmap/internal/dnsdb"
	"iotmap/internal/vnet"
	"iotmap/internal/world"
)

// Discovered is the Discover stage's result.
type Discovered struct {
	// Discovery holds each provider's fused address sets, by provider ID.
	Discovery map[string]*discovery.Result
	// PDNS is the passive-DNS database the validation filter queries.
	PDNS *dnsdb.DB
}

// Discover runs the Section 3.3 source fusion.
func (s *System) Discover(ctx context.Context) error {
	// The scan catalog and the week of zone stores live for this call
	// only: discovery.Run reads them, the result keeps none of it. The
	// three are independent read-only passes over the World, so they are
	// built concurrently.
	in := discovery.Inputs{
		Patterns: s.Patterns,
		Views:    world.VantagePointViews,
		Days:     s.World.Days,
		Seed:     s.Cfg.Seed,
	}
	analysis.ForEach(3, func(i int) {
		switch i {
		case 0:
			in.Zones = s.World.ZoneStores()
		case 1:
			in.Censys = s.World.BuildCensys()
		case 2:
			in.PDNS = s.World.BuildDNSDB()
		}
	})
	if !s.Cfg.SkipLiveScan {
		s.fabric = vnet.New()
		ca, err := certmodel.NewCA("IoT Backend Study CA")
		if err != nil {
			return err
		}
		if err := s.World.DeployServers(s.fabric, ca, s.World.V6Servers()); err != nil {
			return err
		}
		in.Fabric = s.fabric
		in.Hitlist = s.World.BuildHitlist(hitlistCoverage)
	}
	res, err := discovery.Run(ctx, in)
	if err != nil {
		return err
	}
	s.Discovered = Discovered{Discovery: res, PDNS: in.PDNS}
	return nil
}

// hitlistCoverage is the IPv6 hitlist's fraction of the v6 estate.
const hitlistCoverage = 0.8

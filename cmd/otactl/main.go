// Command otactl drives OTA update campaigns against a simulated fleet
// and reports the outcome, including what an update-channel attacker
// achieves mid-campaign and what a stolen-key attacker achieves under
// each key-provisioning policy.
//
// Usage:
//
//	otactl campaign [-fleet N] [-models M] [-canary N] [-growth K]
//	                [-abort F] [-attack A] [-attack-from W]
//	                [-rotate-at W] [-rotate-on-blast] [-fleetpar P] [-seed S]
//	                                      staged rollout waves, optionally under attack
//	otactl attack [-fleet N] [-models M] [-policy shared|per-model|per-device]
//	                                      extract one key, try the whole fleet
//
// The campaign subcommand runs the internal/campaign engine: canary →
// ring → full waves over a pooled fleet, verify-once-per-campaign
// signature memoization, version skew from vehicles that missed the
// previous campaign, and the E22 attack matrix (freeze, rollback,
// imagekey, twokey) with abort thresholds and key rotation as the
// responses. The report is deterministic for a given flag set at any
// -fleetpar value.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"autosec/internal/campaign"
	"autosec/internal/fleet"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "campaign":
		cmdCampaign(os.Args[2:])
	case "attack":
		cmdAttack(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  otactl campaign [-fleet N] [-models M] [-canary N] [-growth K] [-abort F]
                  [-attack A] [-attack-from W] [-rotate-at W] [-rotate-on-blast]
                  [-fleetpar P] [-seed S]
                  staged rollout waves under an optional mid-campaign attack
                  A in {none, freeze, rollback, imagekey, twokey}
  otactl attack [-fleet N] [-models M] [-policy P]              assess stolen-key fleet compromise
                 P in {shared, per-model, per-device}
`)
	os.Exit(2)
}

func cmdCampaign(args []string) {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	n := fs.Int("fleet", 400, "fleet size")
	models := fs.Int("models", 4, "model lines")
	canary := fs.Int("canary", 16, "canary (first wave) size")
	growth := fs.Int("growth", 4, "ring growth factor between waves")
	abort := fs.Float64("abort", 0.5, "abort threshold on a wave's compromised fraction (0 disables)")
	attackName := fs.String("attack", "none", "mid-campaign attack: none|freeze|rollback|imagekey|twokey")
	attackFrom := fs.Int("attack-from", 1, "first wave index the attack is active for")
	rotateAt := fs.Int("rotate-at", -1, "rotate the trust epoch before this wave index (-1: never)")
	rotateOnBlast := fs.Bool("rotate-on-blast", false, "rotate keys instead of aborting when a wave trips the abort threshold")
	fleetpar := fs.Int("fleetpar", 1, "fleet driver worker count (any value prints identical reports)")
	seed := fs.Uint64("seed", 1, "scenario seed")
	_ = fs.Parse(args)

	var kind campaign.AttackKind
	switch *attackName {
	case "none":
		kind = campaign.AttackNone
	case "freeze":
		kind = campaign.AttackFreeze
	case "rollback":
		kind = campaign.AttackRollback
	case "imagekey":
		kind = campaign.AttackImageKey
	case "twokey":
		kind = campaign.AttackTwoKey
	default:
		usage()
	}

	eng, err := campaign.New(campaign.Config{
		Fleet:   *n,
		Models:  *models,
		Workers: *fleetpar,
		Seed:    *seed,
		Strategy: campaign.Strategy{
			Name:           "otactl",
			Canary:         *canary,
			Growth:         *growth,
			AbortThreshold: *abort,
		},
		Attack:        campaign.AttackPlan{Kind: kind, FromWave: *attackFrom},
		RotateAtWave:  *rotateAt,
		RotateOnBlast: *rotateOnBlast,
	})
	if err != nil {
		fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Render())
}

func cmdAttack(args []string) {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	n := fs.Int("fleet", 1000, "fleet size")
	models := fs.Int("models", 10, "model lines")
	polName := fs.String("policy", "shared", "key provisioning: shared|per-model|per-device")
	_ = fs.Parse(args)
	if *n < 1 {
		fatal(fmt.Errorf("-fleet must be at least 1 (the attacked vehicle), got %d", *n))
	}

	var pol fleet.Policy
	switch *polName {
	case "shared":
		pol = fleet.SharedKey
	case "per-model":
		pol = fleet.PerModel
	case "per-device":
		pol = fleet.PerDevice
	default:
		usage()
	}

	var master [16]byte
	copy(master[:], "otactl-prod-master")
	f := fleet.New(*n, *models, pol, master, 0)
	fmt.Printf("provisioned fleet of %d vehicles across %d models under %s keys\n", *n, *models, pol)
	fmt.Printf("attacker physically extracts the master key of %s (side-channel, see E2)\n", f.Vehicles[0].VIN)
	res := f.AssessCompromise(0)
	fmt.Printf("malicious SHE key loads accepted by %d/%d vehicles (%.1f%% of the fleet)\n",
		res.Compromised, res.FleetSize, 100*res.Fraction())
	switch pol {
	case fleet.SharedKey:
		fmt.Println("=> the paper's warning realized: one ECU compromise owns the whole class")
	case fleet.PerModel:
		fmt.Println("=> blast radius contained to the victim's model line")
	case fleet.PerDevice:
		fmt.Println("=> blast radius contained to the attacked vehicle only")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "otactl: %v\n", err)
	os.Exit(1)
}

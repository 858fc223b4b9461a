"""Transfer of intensity correlation onto two initially independent idlers.

Two twin-beam pairs, each squeezed 7 dB below the two-beam shot-noise limit
and carrying 20 dB of excess sum noise, share no correlation across pairs.
Keeping only the samples where the signal-difference photocurrent falls
within a 0.03 delta window leaves the idler difference squeezed close to
4 dB: the input correlation minus the 3 dB conditioning cost.

Run:  python3 demos/01_headline_transfer.py
"""

from twinbeam_transfer import ScenarioConfig, run_scenario


def main():
    cfg = ScenarioConfig(seed=0)  # defaults: S = 7 dB, V+ = 200, window 0.03 delta
    result = run_scenario(cfg)

    print("selection window: %.2f delta, kept %d of %d samples (probability %.2e)"
          % (cfg.selection.bandwidth_delta, result.conditioned.kept_count,
             cfg.n_points, result.conditioned.preparation_probability))
    print()
    print("idler-difference noise relative to the shot-noise limit:")
    print("  conditioned    %+6.2f dB  [%+.2f, %+.2f]"
          % (result.conditioned.squeezing_db, result.conditioned.ci_low_db,
             result.conditioned.ci_high_db))
    print("  unconditioned  %+6.2f dB  (excess sum noise dominates)"
          % result.unconditioned.squeezing_db)
    print("  closed form    %+6.2f dB  (predicted probability %.2e)"
          % (result.oracle.transferred_db, result.oracle.selection_probability))
    print()

    # the noise in dB below the shot level is -20 log10 of the standard
    # deviation in units of delta
    print("idler-difference standard deviations (in units of delta):")
    print("  conditioned    %.3f" % 10 ** (-result.conditioned.squeezing_db / 20))
    print("  unconditioned  %.3f" % 10 ** (-result.unconditioned.squeezing_db / 20))
    print()
    print("conditioned scatter sample (first 5 of %d points):"
          % len(result.conditioned_scatter))
    for i1, i2 in result.conditioned_scatter[:5]:
        print("  i1 = %+8.4f   i2 = %+8.4f" % (i1, i2))


if __name__ == "__main__":
    main()

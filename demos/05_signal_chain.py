"""The wideband path: synthesize photocurrents, demodulate, then select.

Instead of drawing baseband samples directly, this engine builds four
wideband photocurrent records whose noise spectra are cavity-shaped
Lorentzians (a squeezing dip in each pair's difference, an excess bump in
each sum), then recovers baseband samples the way hardware does: mix with a
local oscillator at the analysis frequency, low-pass, and decimate in two
stages. The numbers that come out match the direct engine.

This demo uses a scaled-down 2 MHz chain so it runs in about a second; the
default 50 MHz configuration is exercised by the acceptance tests.

Run:  python3 demos/05_signal_chain.py
"""

import dataclasses

from twinbeam_transfer import (
    ScenarioConfig,
    SelectionConfig,
    SignalChainConfig,
    decimation_plan,
    run_scenario,
)

SCALED = SignalChainConfig(
    lo_frequency_hz=2.0e5,
    synth_rate_hz=2.0e6,
    post_mixer_cutoff_hz=2.0e4,
    output_rate_hz=5.0e4,
    cavity_bandwidth_hz=1.0e6,
)


def main():
    q1, q2 = decimation_plan(SCALED)
    print("chain: %.0f kHz analysis frequency, %.0f MHz synthesis rate,"
          % (SCALED.lo_frequency_hz / 1e3, SCALED.synth_rate_hz / 1e6))
    print("       decimate by %d then %d down to %.0f kHz output"
          % (q1, q2, SCALED.output_rate_hz / 1e3))
    print()

    base = ScenarioConfig(n_points=60_000, seed=4,
                          selection=SelectionConfig(bandwidth_delta=0.1))
    for engine in ("direct", "chain"):
        cfg = dataclasses.replace(base, engine=engine, signal_chain=SCALED)
        result = run_scenario(cfg)
        print("%6s engine: conditioned %+5.2f dB [%+5.2f, %+5.2f], kept %d"
              % (engine, result.conditioned.squeezing_db,
                 result.conditioned.ci_low_db, result.conditioned.ci_high_db,
                 result.conditioned.kept_count))
    print()
    print("closed form: %+5.2f dB" % result.oracle.transferred_db)
    print()
    print("(the two engines use independent randomness; agreement is")
    print(" statistical, not bitwise)")


if __name__ == "__main__":
    main()

"""The CLI runs of acceptance criterion 12, by name: (argv, files written).

This module imports nothing, so ``tools/cli_bytes.py`` can load it by
path in a process that does not import ``collapse_sim``;
``test_acceptance`` imports it.
"""

CLI_CASES = {
    "trajectory": (
        ["trajectory", "--n-sites", "6", "--master-seed", "7", "--dt", "0.04"],
        ["trajectory.csv"],
    ),
    "sweep": (
        ["sweep", "--n-list", "4,8,16", "--m", "60", "--master-seed", "7",
         "--dt", "0.04"],
        ["sweep.csv", "sweep_fit.json"],
    ),
    "bayes": (
        ["bayes", "--n-sites", "5", "--m", "2000", "--t", "6",
         "--master-seed", "7"],
        ["bayes.csv", "bayes_summary.json"],
    ),
    "bloch": (
        ["bloch", "--n-sites", "4", "--m", "30", "--steps", "30", "--dt", "0.01",
         "--master-seed", "7", "--twin", "true", "--twin-steps", "200"],
        ["bloch.csv", "bloch_summary.json"],
    ),
    "check": (
        ["check", "--n-sites", "4", "--m", "300", "--t-grid", "0,0.5,1",
         "--dt", "0.04", "--master-seed", "7"],
        ["check.csv", "check_summary.json"],
    ),
}

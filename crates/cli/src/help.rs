//! `--help` text: the command list, and each command's flags.

/// Help for `dtexl --help`.
pub const TOP: &str = "\
usage: dtexl <command> [options]

commands:
  list            games (Table I) and schedule presets
  sim             simulate one frame (or a frame sequence) of a game
  sweep           run a fault-tolerant sweep over games x schedules
  sweep dispatch  run a sweep as a supervised multi-process fleet
  sweep submit    drop a batch of jobs into a daemon's spool
  sweep daemon    serve a spool with a supervised worker fleet
  sweep status    print a spool's status document
  sweep merge     union shard journals into one
  sweep canon     print a journal's ok records in canonical form
  profile         stall-attribution tables of one frame (or --diff)
  render          render a frame to a PPM image
  characterize    per-game workload characteristics
  trace-save      save a game's frame as a trace file
  trace-sim       simulate a saved trace

global options:
  --format text|json  error reporting (json: one object per line on
                      stderr; sweep also prints records as JSON lines)
  -h, --help          this text; `dtexl <command> --help` for a command

run `dtexl list` for games and schedules";

/// The help text of `command` (`sweep` subcommands as `sweep <sub>`),
/// or `None` for an unknown command.
pub fn command(command: &str) -> Option<&'static str> {
    Some(match command {
        "list" => LIST,
        "sim" => SIM,
        "sweep" => SWEEP,
        "sweep dispatch" => SWEEP_DISPATCH,
        "sweep submit" => SWEEP_SUBMIT,
        "sweep daemon" => SWEEP_DAEMON,
        "sweep status" => SWEEP_STATUS,
        "sweep merge" => SWEEP_MERGE,
        "sweep canon" => SWEEP_CANON,
        "profile" => PROFILE,
        "render" => RENDER,
        "characterize" => CHARACTERIZE,
        "trace-save" => TRACE_SAVE,
        "trace-sim" => TRACE_SIM,
        _ => return None,
    })
}

const LIST: &str = "\
usage: dtexl list

Print the games (Table I) and the schedule presets.";

const SIM: &str = "\
usage: dtexl sim --game ALIAS [options]

  --game ALIAS        game to simulate (see `dtexl list`)
  --res WxH           resolution (default 1960x768)
  --schedule NAME     schedule preset (default dtexl)
  --coupled           report the coupled-barrier timing (default decoupled)
  --frames N          simulate N frames and print averages (default 1)
  --threads N         frames simulated at once (default 1; results do
                      not depend on it)";

/// The job axes `sweep`, `sweep submit` and `sweep dispatch` share.
macro_rules! axes {
    () => {
        "  --games all|CSV     games (default all)
  --schedules CSV     schedule presets (default baseline,dtexl)
  --res WxH           resolution (default 1960x768)
  --frame N           frame index (default 0)
  --upper             upper-bound (infinite-L1) pipeline mode"
    };
}

/// The per-job flags `sweep` takes and `sweep dispatch` / `sweep
/// daemon` forward to their workers.
macro_rules! job_flags {
    () => {
        "  --threads N         jobs run at once (fleet: per worker; default 1)
  --job-timeout SECS  per-attempt timeout
  --retries N         retries per failed job (default 0)
  --backoff-ms N      base retry backoff (default 50)
  --job-mem-budget MB per-job allocation high-water limit
  --heartbeat-ms N    in-flight progress beat interval, 0 = none
                      (default 1000)
  --memoize           share the schedule-independent frame prefix
                      across jobs (metrics unchanged)
  --memoize-budget MB bound on the prefix cache (needs --memoize)
  --with-obs          journal a per-job observability rollup
  --stall-key SUBSTR  with --stall-ms: stall every job whose key
  --stall-ms N        contains SUBSTR (supervision test hook)"
    };
}

/// The supervision flags `sweep dispatch` and `sweep daemon` share.
macro_rules! fleet_flags {
    () => {
        "  --shards N          worker processes (default 2)
  --wedge-timeout SECS silent-worker kill timeout (default 30)
  --max-restarts N    restarts per shard (default 3)
  --restart-backoff-ms N  base restart backoff (default 500)
  --poison-threshold N  shard deaths that quarantine a job (default 2)
  --shard-mem-limit MB  per-worker memory limit
  --poll-ms N         supervisor poll interval (default 50)"
    };
}

const SWEEP: &str = concat!(
    "\
usage: dtexl sweep [options]
       dtexl sweep <dispatch|submit|daemon|status|merge|canon> --help

Run every game x schedule job, journaling one JSON line per job.
Exit 0: all ok; 1: aborted on the first failure; 2: completed with
failures (--keep-going).

",
    axes!(),
    "
",
    job_flags!(),
    "
  --journal FILE      append one JSON line per job
  --resume            skip jobs already ok in --journal
  --keep-going        attempt every job despite failures
  --shard i/N         run only shard i of N of the jobs
  --table             print a results table
  --progress          stream job lifecycle events to stderr
  --progress-to FILE  stream them to FILE instead
  --spool DIR         worker mode: take jobs from a daemon's spool
                      instead of the axes
  --spool-poll-ms N   worker mode's idle rescan interval (default 100)"
);

const SWEEP_DISPATCH: &str = concat!(
    "\
usage: dtexl sweep dispatch [options]

Run the sweep's jobs through a daemon on a pre-armed spool in
--workdir, which drains that batch and exits. Exit 0: every job ok;
2: failed or poisoned jobs; 1: a shard gave up or the merge failed.

  --workdir DIR       spool directory (default a fresh temp dir)
  --out FILE          copy of the merged journal
",
    axes!(),
    "
",
    fleet_flags!(),
    "
",
    job_flags!()
);

const SWEEP_SUBMIT: &str = concat!(
    "\
usage: dtexl sweep submit --spool DIR [options]

Drop the jobs into DIR as one content-addressed batch; re-submitting
the same batch is a reported no-op.

  --spool DIR         the daemon's spool directory
",
    axes!()
);

const SWEEP_DAEMON: &str = concat!(
    "\
usage: dtexl sweep daemon --spool DIR [options]

Serve a spool: accept batches while running, supervise one `sweep
--spool` worker per shard and merge their journals live. SIGTERM,
SIGINT or `touch DIR/drain` drains it.

  --spool DIR         the spool directory
  --spool-poll-ms N   workers' idle rescan interval (default 100)
",
    fleet_flags!(),
    "
",
    job_flags!()
);

const SWEEP_STATUS: &str = "\
usage: dtexl sweep status --spool DIR [--metrics]

  --spool DIR         the spool directory
  --metrics           print the Prometheus metrics text instead";

const SWEEP_MERGE: &str = "\
usage: dtexl sweep merge <journals...> --out FILE

Union shard journals: last wins per key, an ok record beats a failed
one with the same config hash, divergent ok records are an error.

  --out FILE          the merged journal";

const SWEEP_CANON: &str = "\
usage: dtexl sweep canon <journal>

Print the journal's latest ok records, sorted, as
key|config_hash|coupled|decoupled|l2.";

const PROFILE: &str = "\
usage: dtexl profile --game ALIAS [options]
       dtexl profile --diff A B [options]

Print one frame's stall-attribution tables. --diff prints the stall
delta between two rollups; an operand is coupled | decoupled (one live
capture) or PATH[@coupled|@decoupled] (a rollup file).

  --game ALIAS        game to profile (see `dtexl list`)
  --res WxH           resolution (default 1960x768)
  --schedule NAME     schedule preset (default dtexl)
  --frame N           frame index (default 0)
  --trace-out FILE    write a Chrome-trace JSON (ui.perfetto.dev)
  --rollup-out FILE   write the rollup JSON for --diff
  --csv               print the tables as CSV
  --diff              compare two rollups (operands A B)";

const RENDER: &str = "\
usage: dtexl render --game ALIAS [options]

  --game ALIAS        game to render (see `dtexl list`)
  --res WxH           resolution (default 1960x768)
  --schedule NAME     schedule preset (default dtexl)
  --out FILE          output PPM image (default frame.ppm)";

const CHARACTERIZE: &str = "\
usage: dtexl characterize [--res WxH]

  --res WxH           resolution (default 1960x768)";

const TRACE_SAVE: &str = "\
usage: dtexl trace-save --game ALIAS --out FILE [--res WxH]

  --game ALIAS        game to save (see `dtexl list`)
  --out FILE          trace file to write
  --res WxH           resolution (default 1960x768)";

const TRACE_SIM: &str = "\
usage: dtexl trace-sim --in FILE [options]

  --in FILE           trace file to simulate
  --res WxH           resolution (default 1960x768)
  --schedule NAME     schedule preset (default dtexl)
  --coupled           report the coupled-barrier timing (default decoupled)";

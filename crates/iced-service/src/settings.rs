//! Every daemon setting, declared once in `TABLE`: its variable,
//! flag, default, bound and help. A daemon starts each setting at its
//! default, then reads its variable, then its flags (the last one wins),
//! through the one parser of its type: an empty value counts as unset,
//! an integer is clamped into its bound, and a value that does not parse
//! exits 2 before the daemon binds, naming the variable or flag it came
//! from. `--help` prints the table.

use std::path::PathBuf;

use iced::arch::CgraConfig;

use crate::chaos::ChaosInjector;
use crate::log::Level;
use crate::router::{RouterConfig, LINK_PIPELINE};
use crate::server::ServiceConfig;

/// Which daemon reads a setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    Shard,
    Router,
}

/// Where a setting starts, as text for its parser (empty: unset).
enum Start {
    Text(&'static str),
    /// The shard's text, then the router's.
    PerRole(&'static str, &'static str),
    /// The host's core count, at most this many.
    Cores(usize),
}

/// One row of `TABLE`; `bound` clamps an integer setting.
pub(crate) struct Setting {
    pub(crate) env: &'static str,
    pub(crate) flag: &'static str,
    roles: &'static [Role],
    start: Start,
    bound: Option<(u64, u64)>,
    help: &'static str,
}

#[rustfmt::skip]
mod rows {
    use super::{Role::{self, *}, Setting, Start::{self, *}};
    const fn row(env: &'static str, flag: &'static str, roles: &'static [Role], start: Start,
        bound: Option<(u64, u64)>, help: &'static str) -> Setting { Setting { env, flag, roles, start, bound, help } }
    const S: &[Role] = &[Shard];
    const R: &[Role] = &[Router];
    const SR: &[Role] = &[Shard, Router];

    // row(variable, flag, read by, default, bound, help)
    pub(crate) static ADDR: Setting = row("ICED_SVC_ADDR", "--addr", SR, PerRole("127.0.0.1:9090", "127.0.0.1:9191"), None, "listen address HOST:PORT; port 0 picks an ephemeral port");
    pub(crate) static SHARDS: Setting = row("ICED_SVC_SHARDS", "--shards", R, Text(""), None, "comma-separated backend shard addresses (required)");
    pub(crate) static THREADS: Setting = row("ICED_SVC_THREADS", "--threads", S, Cores(4), Some((1, 64)), "worker pool size");
    pub(crate) static QUEUE: Setting = row("ICED_SVC_QUEUE", "--queue", S, Text("64"), Some((1, 65_536)), "request queue capacity; a full queue answers queue_full");
    pub(crate) static CACHE_BYTES: Setting = row("ICED_SVC_CACHE_BYTES", "--cache-bytes", S, Text("67108864"), Some((1, 1 << 34)), "in-memory result-cache budget (64 MiB), LRU-evicted");
    pub(crate) static CACHE_DIR: Setting = row("ICED_SVC_CACHE_DIR", "--cache-dir", S, Text(""), None, "disk-spill directory for evicted and flushed entries");
    pub(crate) static CHAOS: Setting = row("ICED_SVC_CHAOS", "--chaos", S, Text(""), None, "chaos-injection seed: decimal, 0x hex or a label; 0 is off");
    pub(crate) static REPLICATE_HOT: Setting = row("ICED_SVC_REPLICATE_HOT", "--replicate-hot", R, Text("3"), Some((0, 1_000_000)), "cached hits in 60 s before a key is copied to its successor shard; 0 is off");
    pub(crate) static PIPELINE: Setting = row("ICED_SVC_PIPELINE", "--pipeline", SR, Text("32"), Some((1, 4096)), "max unanswered requests per connection; excess answers too_many_requests");
    pub(crate) static MAX_CONNS: Setting = row("ICED_SVC_MAX_CONNS", "--max-conns", SR, Text("4096"), Some((1, 65_536)), "max open connections; further dialers get one too_many_connections line");
    pub(crate) static LOG: Setting = row("ICED_SVC_LOG", "--log", S, Text(""), None, "JSONL event-log path");
    pub(crate) static LOG_LEVEL: Setting = row("ICED_SVC_LOG_LEVEL", "--log-level", S, Text("info"), None, "minimum event severity: error, warn, info or debug");

    /// Every setting, in `--help` order.
    pub(crate) static TABLE: [&Setting; 12] = [&ADDR, &SHARDS, &THREADS, &QUEUE, &CACHE_BYTES, &CACHE_DIR, &CHAOS,
        &REPLICATE_HOT, &PIPELINE, &MAX_CONNS, &LOG, &LOG_LEVEL];
}

pub(crate) use rows::*;

impl Setting {
    fn reads(&self, role: Role) -> bool {
        self.roles.contains(&role)
    }

    /// The text `role` starts from.
    fn default(&self, role: Role) -> String {
        match self.start {
            Start::Text(t) => t.into(),
            Start::PerRole(shard, _) if role == Role::Shard => shard.into(),
            Start::PerRole(_, router) => router.into(),
            Start::Cores(max) => {
                let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
                cores.min(max).to_string()
            }
        }
    }
}

/// An environment lookup: the process's, or a test's closure.
type Env<'a> = &'a dyn Fn(&str) -> Option<String>;

/// A daemon's environment and its flags as (variable, value) pairs.
pub(crate) struct Sources<'a> {
    role: Role,
    env: Env<'a>,
    flags: Vec<(&'static str, &'a str)>,
}

/// A value type's parser; it reads the row for its bound.
type Parser<T> = fn(&str, &Setting) -> Result<T, &'static str>;

/// Builds a configuration from a daemon's sources.
pub(crate) type Build<C> = fn(&Sources) -> Result<C, String>;

impl<'a> Sources<'a> {
    /// Reads `args` as flag-value pairs of settings `role` reads.
    pub(crate) fn new(role: Role, env: Env<'a>, args: &'a [String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        for pair in args.chunks(2) {
            let flag = &pair[0];
            let row = TABLE.iter().find(|s| s.flag == flag && s.reads(role));
            let row = row.ok_or_else(|| format!("unknown argument '{flag}' (see --help)"))?;
            let value = pair.get(1).ok_or_else(|| format!("{flag} needs a value"))?;
            flags.push((row.env, value.as_str()));
        }
        Ok(Sources { role, env, flags })
    }

    /// `s` read by `parse` from its default, then its variable, then
    /// each of its flags.
    fn get<T>(&self, s: &Setting, parse: Parser<T>) -> Result<T, String> {
        let mut value = parse(&s.default(self.role), s).expect("a default parses");
        let env = (self.env)(s.env).into_iter().map(|v| (s.env, v));
        let flags = self.flags.iter().filter(|f| f.0 == s.env);
        for (name, text) in env.chain(flags.map(|f| (s.flag, f.1.to_string()))) {
            if !text.is_empty() {
                value = parse(&text, s).map_err(|why| format!("{name}: {why}: {text:?}"))?;
            }
        }
        Ok(value)
    }
}

fn text(t: &str, _: &Setting) -> Result<String, &'static str> {
    Ok(t.to_string())
}

fn path(t: &str, _: &Setting) -> Result<Option<PathBuf>, &'static str> {
    Ok((!t.is_empty()).then(|| PathBuf::from(t)))
}

fn int<T: TryFrom<u64>>(t: &str, s: &Setting) -> Result<T, &'static str> {
    let (lo, hi) = s.bound.expect("an integer setting has a bound");
    let v = t.parse::<u64>().map_err(|_| "not a whole number")?;
    T::try_from(v.clamp(lo, hi)).map_err(|_| "too large")
}

fn list(t: &str, _: &Setting) -> Result<Vec<String>, &'static str> {
    let items = t.split(',').map(str::trim).filter(|a| !a.is_empty());
    Ok(items.map(String::from).collect())
}

pub(crate) fn shard(src: &Sources) -> Result<ServiceConfig, String> {
    Ok(ServiceConfig {
        addr: src.get(&ADDR, text)?,
        threads: src.get(&THREADS, int)?,
        queue_cap: src.get(&QUEUE, int)?,
        cache_bytes: src.get(&CACHE_BYTES, int)?,
        cache_dir: src.get(&CACHE_DIR, path)?,
        chaos: src.get(&CHAOS, |t, _| Ok(ChaosInjector::parse_seed(t)))?,
        log_path: src.get(&LOG, path)?,
        log_level: src.get(&LOG_LEVEL, |t, _| Level::parse(t).ok_or("not a level"))?,
        pipeline: src.get(&PIPELINE, int)?,
        max_conns: src.get(&MAX_CONNS, int)?,
        cgra: CgraConfig::iced_prototype(),
    })
}

pub(crate) fn router(src: &Sources) -> Result<RouterConfig, String> {
    Ok(RouterConfig {
        addr: src.get(&ADDR, text)?,
        shards: src.get(&SHARDS, list)?,
        replicate_hot: src.get(&REPLICATE_HOT, int)?,
        pipeline: src.get(&PIPELINE, int)?,
        max_conns: src.get(&MAX_CONNS, int)?,
        shard_pipeline: LINK_PIPELINE,
        cgra: CgraConfig::iced_prototype(),
    })
}

/// `build`'s configuration with no variable or flag set.
pub(crate) fn defaults<C>(role: Role, build: Build<C>) -> C {
    let src = Sources::new(role, &|_| None, &[]);
    src.and_then(|src| build(&src)).expect("the defaults parse")
}

/// The `--help` text: every setting `role` reads, in table order.
fn help(role: Role, bin: &str) -> String {
    let mut out = format!("usage: {bin} [--help] [FLAG VALUE]...\n{}\n\n", HELP_RULE);
    for s in TABLE.iter().filter(|s| s.reads(role)) {
        let default = match (&s.start, s.default(role)) {
            (Start::Cores(max), _) => format!("min(cores, {max})"),
            (_, d) if d.is_empty() => "unset".into(),
            (_, d) => d,
        };
        let bound = s
            .bound
            .map_or(String::new(), |b| format!(", bound {}..={}", b.0, b.1));
        out += &format!("  {:<16} {:<24} default {default}{bound}\n", s.flag, s.env);
        out += &format!("      {}\n", s.help);
    }
    out
}

const HELP_RULE: &str = "Each setting starts at its default, then reads its environment \
    variable (empty counts as unset),\nthen its flag; integers are clamped into their bound.";

fn launch<C>(role: Role, bin: &str, build: Build<C>) -> C {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", help(role, bin));
        std::process::exit(0);
    }
    let src = Sources::new(role, &|k| std::env::var(k).ok(), &args);
    src.and_then(|src| build(&src)).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        std::process::exit(2)
    })
}

/// `iced-serviced`'s configuration from this process's environment and
/// arguments: `--help` prints the table and exits 0, bad input prints
/// why and exits 2.
pub fn serviced() -> ServiceConfig {
    launch(Role::Shard, "iced-serviced", shard)
}

/// `iced-routerd`'s configuration, read as [`serviced`] reads its own;
/// no shard is bad input too.
pub fn routerd() -> RouterConfig {
    launch(Role::Router, "iced-routerd", |src| {
        let (cfg, env, flag) = (router(src)?, SHARDS.env, SHARDS.flag);
        match cfg.shards.is_empty() {
            true => Err(format!("no shard configured (set {env} or pass {flag})")),
            false => Ok(cfg),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_env(_: &str) -> Option<String> {
        None
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// What `build` makes of `env` and `flags`.
    fn parse<C>(env: Env, flags: &[&str], role: Role, build: Build<C>) -> Result<C, String> {
        let flags = args(flags);
        Sources::new(role, env, &flags).and_then(|src| build(&src))
    }

    /// `role`'s configuration, rendered, from one variable and `flags`.
    fn read(role: Role, var: (&str, &str), flags: &[&str]) -> Result<String, String> {
        let env = |k: &str| (k == var.0).then(|| var.1.to_string());
        match role {
            Role::Shard => parse(&env, flags, role, shard).map(|c| format!("{c:?}")),
            Role::Router => parse(&env, flags, role, router).map(|c| format!("{c:?}")),
        }
    }

    #[test]
    fn a_flag_reads_a_text_exactly_as_its_variable_does() {
        let texts = [
            "0",
            "1",
            "7",
            "64",
            "100000",
            "99999999999",
            "0xdead",
            "x",
            "-1",
        ];
        for s in TABLE {
            for &role in s.roles {
                for text in texts {
                    let from_env =
                        read(role, (s.env, text), &[]).map_err(|e| e.replace(s.env, "_"));
                    let from_flag = read(role, ("", ""), &[s.flag, text]);
                    let from_flag = from_flag.map_err(|e| e.replace(s.flag, "_"));
                    assert_eq!(from_env, from_flag, "{} {text:?} as {role:?}", s.env);
                }
            }
        }
    }

    #[test]
    fn integers_are_clamped_into_their_bound_from_either_source() {
        let threads =
            |env: Env, flags: &[&str]| parse(env, flags, Role::Shard, shard).map(|c| c.threads);
        assert_eq!(threads(&no_env, &["--threads", "100000"]), Ok(64));
        assert_eq!(
            threads(&|k| (k == THREADS.env).then(|| "100000".into()), &[]),
            Ok(64)
        );
        assert_eq!(threads(&no_env, &["--threads", "0"]), Ok(1));
        // One bound for the connection cap, whichever daemon reads it.
        let flags = ["--max-conns", "1000000"];
        let shard_cfg = parse(&no_env, &flags, Role::Shard, shard).unwrap();
        let router_cfg = parse(&no_env, &flags, Role::Router, router).unwrap();
        assert_eq!(
            (shard_cfg.max_conns, router_cfg.max_conns),
            (65_536, 65_536)
        );
    }

    #[test]
    fn malformed_numbers_are_rejected_with_the_settings_name() {
        for s in TABLE.iter().filter(|s| s.bound.is_some()) {
            for &role in s.roles {
                for bad in ["abc", "-1", "1.5", " 3", "99999999999999999999999"] {
                    let e = read(role, ("", ""), &[s.flag, bad]).unwrap_err();
                    assert!(e.starts_with(s.flag), "{e}");
                    let e = read(role, (s.env, bad), &[]).unwrap_err();
                    assert!(e.starts_with(s.env), "{e}");
                }
            }
        }
        let e = read(Role::Shard, ("", ""), &["--log-level", "loud"]).unwrap_err();
        assert!(e.starts_with("--log-level"), "{e}");
    }

    #[test]
    fn chaos_seeds_parse_the_same_from_either_source() {
        let cases = [
            ("12345", Some(12345)),
            ("0xdead", Some(0xdead)),
            ("0", None),
            ("", None),
        ];
        for (text, want) in cases {
            let env = |k: &str| (k == CHAOS.env).then(|| text.to_string());
            let from_env = parse(&env, &[], Role::Shard, shard).unwrap();
            let from_flag = parse(&no_env, &["--chaos", text], Role::Shard, shard).unwrap();
            assert_eq!((from_env.chaos, from_flag.chaos), (want, want), "{text:?}");
        }
        let labeled = parse(&no_env, &["--chaos", "ci-nightly"], Role::Shard, shard).unwrap();
        assert_eq!(labeled.chaos, ChaosInjector::parse_seed("ci-nightly"));
        assert!(labeled.chaos.is_some());
    }

    #[test]
    fn defaults_then_env_then_flags_with_empty_as_unset() {
        let env = |k: &str| match k {
            "ICED_SVC_QUEUE" => Some("9".to_string()),
            "ICED_SVC_PIPELINE" => Some(String::new()),
            _ => None,
        };
        let cfg = parse(&env, &["--queue", "5", "--queue", "6"], Role::Shard, shard).unwrap();
        assert_eq!((cfg.queue_cap, cfg.pipeline), (6, 32));
        let cfg = parse(&env, &[], Role::Shard, shard).unwrap();
        assert_eq!((cfg.queue_cap, cfg.cache_bytes), (9, 64 << 20));
        assert_eq!(cfg.addr, "127.0.0.1:9090");
        let cfg = parse(&no_env, &["--shards", "a:1, b:2,"], Role::Router, router).unwrap();
        assert_eq!((cfg.addr.as_str(), cfg.shards.len()), ("127.0.0.1:9191", 2));
        // In process: an ephemeral port and two workers.
        let cfg = ServiceConfig::default();
        assert_eq!((cfg.addr.as_str(), cfg.threads), ("127.0.0.1:0", 2));
        assert_eq!(RouterConfig::default().addr, "127.0.0.1:0");
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        let run = |role, list: &[&str]| Sources::new(role, &no_env, &args(list)).map(|_| ());
        assert!(run(Role::Shard, &["--threads"])
            .unwrap_err()
            .contains("--threads"));
        assert!(run(Role::Shard, &["--bogus", "1"]).is_err());
        // A flag only the other daemon reads is unknown here.
        assert!(run(Role::Router, &["--threads", "1"]).is_err());
        assert!(run(Role::Shard, &["--shards", "a:1"]).is_err());
    }

    #[test]
    fn help_lists_every_setting_of_its_daemon() {
        for role in [Role::Shard, Role::Router] {
            let text = help(role, "daemon");
            for s in TABLE {
                let listed = text.contains(s.env) && text.contains(&format!("{} ", s.flag));
                assert_eq!(listed, s.reads(role), "{} in {role:?} help", s.env);
            }
        }
    }
}

//! The evaluation harness: [`figures`] computes every table and figure of
//! the paper's evaluation (see `DESIGN.md` §5 for the index), and the
//! `src/bin/` measurement binaries share the sweep and tracing plumbing
//! here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

pub mod figures;

/// Worker-thread count for [`par_sweep`]: the `ICED_BENCH_THREADS`
/// environment variable wins, then available parallelism.
fn sweep_threads() -> usize {
    if let Some(v) = std::env::var_os("ICED_BENCH_THREADS") {
        if let Some(n) = v.to_str().and_then(|s| s.trim().parse::<usize>().ok()) {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Fans `work` over `items` on scoped worker threads, returning results in
/// input order — the sweep harness behind the figures and bench binaries.
///
/// Items are claimed from a shared counter (same pattern as the mapper's
/// portfolio search), so long points — one kernel mapping much slower than
/// the rest, say — never leave workers idle behind a static partition.
/// `work` must be order-independent; output order is restored afterwards,
/// so printing stays deterministic. Worker count comes from
/// `ICED_BENCH_THREADS`, defaulting to available parallelism; set it to 1
/// to debug with a strictly serial sweep.
pub fn par_sweep<T, R>(items: &[T], work: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let threads = sweep_threads().min(items.len()).max(1);
    if threads == 1 {
        return items.iter().map(&work).collect();
    }
    let next = AtomicUsize::new(0);
    let (next, work) = (&next, &work);
    let mut parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(idx) else {
                            break;
                        };
                        out.push((idx, work(item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for part in &mut parts {
        for (idx, r) in part.drain(..) {
            slots[idx] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

/// Runs a bench binary's body, recording it when the `ICED_TRACE`
/// environment variable names an output file: every `fn main` in
/// `src/bin/` runs its body through it. Set `ICED_TRACE_DETAIL=1` as well
/// to record one event per simulated FU firing (large, but gives full
/// timeline replay). A path ending in `.jsonl` exports line-delimited
/// JSON; anything else gets Chrome `trace_event` JSON (loadable in
/// Perfetto / `chrome://tracing`). The run's
/// [`iced::trace::TraceSummary`] goes to stderr. With `ICED_TRACE` unset
/// tracing stays disabled and costs nothing.
pub fn with_tracing(body: impl FnOnce()) {
    let Some(path) = std::env::var_os("ICED_TRACE").map(std::path::PathBuf::from) else {
        return body();
    };
    let collector = std::sync::Arc::new(iced::trace::RecordingCollector::new());
    if iced::trace::install(collector.clone()).is_err() {
        eprintln!("iced-bench: a trace collector is already installed");
        return body();
    }
    if std::env::var_os("ICED_TRACE_DETAIL").is_some() {
        iced::trace::set_detail(true);
    }
    body();
    let records = collector.records();
    let jsonl = path.extension().is_some_and(|e| e == "jsonl");
    let mut out = Vec::new();
    let res = if jsonl {
        iced::trace::export::write_jsonl(&records, &mut out)
    } else {
        iced::trace::export::write_chrome_trace(&records, &mut out)
    };
    if let Err(e) = res.and_then(|()| std::fs::write(&path, &out)) {
        eprintln!("iced-bench: cannot write trace {}: {e}", path.display());
        return;
    }
    eprintln!(
        "wrote {} ({} records, {})",
        path.display(),
        records.len(),
        if jsonl { "jsonl" } else { "chrome trace" }
    );
    eprint!("{}", iced::trace::TraceSummary::from_records(&records));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_sweep_preserves_input_order() {
        let items: Vec<usize> = (0..37).collect();
        let doubled = par_sweep(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert!(par_sweep::<usize, usize>(&[], |&x| x).is_empty());
    }
}

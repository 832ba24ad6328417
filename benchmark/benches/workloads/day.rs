//! `day_roundtrip`: `save_day` then `load_day` of the wide dataset, no
//! mining. The end-to-end pass runs the loop in a child process of its
//! own, under a launcher, so peak RSS and CPU are the round trip's and
//! nothing else's.

use super::layers;
use super::{
    finish_end_to_end, finish_traced, timed_setups, traced_loop, Checks, Deadline, Options,
    ITERATION,
};
use crate::inputs::{self, Shape};
use crate::metrics::{RunResult, Samples};
use crate::proc::{self, Launched};
use crate::trace::{self, Tracer};
use smash_support::ckpt;
use smash_trace::day::{frame_day, load_day, parse_day, save_day};
use std::fs;
use std::io::{self, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The hidden first argument that makes the runner the round-trip child.
pub const CHILD_FLAG: &str = "--child-day-roundtrip";

/// Warm-up round trips before the timed ones (the first `save_day` of a
/// process pays first-touch costs the steady state does not).
const WARM_UPS: usize = 2;

/// The child: loads the day at `day`, then round-trips it through
/// `work` until `seconds` have passed, printing one line per timed
/// iteration: `save_s load_s cpu_s bytes content-hash fingerprint-ok`.
pub fn child(day: &Path, work: &Path, seconds: f64, min_iterations: usize) -> io::Result<()> {
    let ds = load_day(day).map_err(io::Error::other)?;
    let fingerprint = ds.fingerprint();
    let tmp = work.join("roundtrip.smshcols");
    for _ in 0..WARM_UPS {
        save_day(&tmp, &ds).map_err(io::Error::other)?;
        load_day(&tmp).map_err(io::Error::other)?;
    }
    let deadline = Deadline::start(seconds, min_iterations);
    let mut done = 0;
    while deadline.more(done) {
        let cpu_before = proc::self_cpu_s();
        let start = Instant::now();
        save_day(&tmp, &ds).map_err(io::Error::other)?;
        let save_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let back = load_day(&tmp).map_err(io::Error::other)?;
        let load_s = start.elapsed().as_secs_f64();
        let cpu_s = proc::self_cpu_s() - cpu_before;
        let bytes = fs::read(&tmp)?;
        println!(
            "{save_s:?} {load_s:?} {cpu_s:?} {} {:016x} {}",
            bytes.len(),
            ckpt::fnv1a(&bytes),
            back.fingerprint() == fingerprint
        );
        done += 1;
    }
    Ok(())
}

/// The end-to-end pass.
pub fn end_to_end(opts: &Options) -> io::Result<RunResult> {
    let mut samples = Samples::default();
    let mut checks = Checks::default();
    let scenario = opts.scenario(Shape::Wide);
    let cache = opts.out_dir.join("inputs");

    let (input, _) = timed_setups(opts, &mut samples, |_| {
        let start = Instant::now();
        let made = inputs::day_file(&cache, Shape::Wide, &scenario, false)?;
        Ok((made, start.elapsed().as_secs_f64()))
    })?;

    let work = opts.scratch("e2e")?;
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg(CHILD_FLAG)
        .arg(&input.path)
        .arg(&work)
        .arg(opts.seconds.to_string())
        .arg(opts.min_iterations().to_string());
    let mut child = Launched::spawn(&work, &cmd, Stdio::piped())?;
    let mut printed = String::new();
    child
        .stdout()
        .expect("child stdout is piped")
        .read_to_string(&mut printed)?;
    let usage = child.finish()?;

    let mut hashes = Vec::new();
    for line in printed.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [save_s, load_s, cpu_s, bytes, hash, same] = fields[..] else {
            return Err(io::Error::other(format!("unexpected child line `{line}`")));
        };
        let num = |s: &str| s.parse::<f64>().map_err(io::Error::other);
        let roundtrip_s = num(save_s)? + num(load_s)?;
        samples.push("result_s", roundtrip_s);
        samples.push("records_per_s", input.records as f64 / roundtrip_s);
        samples.push("cpu_s", num(cpu_s)?);
        checks.expect(same == "true", || {
            "load_day(save_day(ds)) has another fingerprint than ds".into()
        });
        checks.expect(num(bytes)? == input.bytes as f64, || {
            format!(
                "round trip wrote {bytes} bytes, set-up wrote {}",
                input.bytes
            )
        });
        hashes.push(hash.to_owned());
    }
    checks.expect(hashes.windows(2).all(|w| w[0] == w[1]), || {
        "day bytes differ between iterations".into()
    });
    samples.push("peak_rss_mb", usage.peak_rss_mb);
    let attempted = hashes.len() as u64;
    let failed = u64::from(!usage.success);
    let notes = vec![format!(
        "{} records, {} day bytes ({:.2} B/record), {attempted} timed round trips",
        input.records,
        input.bytes,
        input.bytes as f64 / input.records.max(1) as f64
    )];
    let _ = fs::remove_dir_all(&work);
    Ok(finish_end_to_end(
        &samples, checks, attempted, failed, notes,
    ))
}

/// The traced pass: `save_day` and `load_day` taken apart into frame,
/// write, read and parse.
pub fn traced(opts: &Options) -> io::Result<RunResult> {
    let mut samples = Samples::default();
    samples.push("bench_env.spin_ms_before", proc::spin_ms());
    let mut checks = Checks::default();
    let scenario = opts.scenario(Shape::Wide);
    let (input, ds) = inputs::day_file(&opts.out_dir.join("inputs"), Shape::Wide, &scenario, true)?;
    let fingerprint = ds.fingerprint();
    let work = opts.scratch("trace")?;
    let tmp = work.join("roundtrip.smshcols");

    let pass = |tracer: &Tracer, iter: u32, _: &mut Samples| -> io::Result<String> {
        let back = tracer
            .iteration(iter)
            .span(ITERATION, |ctx| -> io::Result<_> {
                let framed = ctx.span("trace_day.frame", |_| frame_day(&ds));
                ctx.span("trace_day.write", |_| ckpt::write_atomic(&tmp, &framed))
                    .map_err(io::Error::other)?;
                drop(framed);
                let bytes = ctx.span("trace_day.read", |_| fs::read(&tmp))?;
                ctx.span("trace_day.parse", |_| parse_day(&bytes))
                    .map_err(io::Error::other)
            })?;
        Ok(back.fingerprint())
    };

    let min_pairs = opts.min_iterations().min(3);
    let looped = traced_loop(opts, min_pairs, &mut samples, &mut checks, pass)?;
    checks.expect(looped.digest == fingerprint, || {
        "load_day(save_day(ds)) has another fingerprint than ds".into()
    });
    let spans = looped.spans;
    let secs = |name: &str| trace::seconds_per_iteration(&spans, name);
    let (frame, write, read, parse) = (
        secs("trace_day.frame"),
        secs("trace_day.write"),
        secs("trace_day.read"),
        secs("trace_day.parse"),
    );
    let mb = input.bytes as f64 / 1e6;
    for (iter, frame_s) in &frame {
        let at = |m: &std::collections::BTreeMap<u32, f64>| m.get(iter).copied().unwrap_or(0.0);
        let save_s = frame_s + at(&write);
        let load_s = at(&read) + at(&parse);
        samples.push("trace_day.save_s", save_s);
        samples.push("trace_day.load_s", load_s);
        samples.push("trace_day.save_mb_per_s", mb / save_s);
        samples.push("trace_day.load_mb_per_s", mb / load_s);
    }
    samples.push("trace_day.bytes", input.bytes as f64);
    samples.push(
        "trace_day.bytes_per_record",
        input.bytes as f64 / input.records.max(1) as f64,
    );
    layers::push_dataset_gauges(&ds, &mut samples);
    let notes = vec![format!("{} records", input.records), looped.note];
    let _ = fs::remove_dir_all(&work);
    finish_traced(opts, samples, &spans, checks, notes)
}

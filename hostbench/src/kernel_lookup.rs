//! `kernel_lookup`: a read-only mix of `stat`, `open`/`close` and
//! `readdir` on a PK kernel booted for 48 cores, over a tree built at
//! set-up under the `/srv` mount point, absent names included.
//!
//! The seeded schedule of [`SCHEDULE`] calls runs whole, once per
//! round, call `i` on core `i % 48`. One operation is one call. Each
//! call's outcome is fingerprinted into a slot; the checks compare the
//! slots with a shadow model of the tree the benchmark keeps itself.

use crate::harness::{repeated_setup, span_or_call, timed_phase, Report, Samples, Spans};
use crate::seed::Rng;
use pk_kernel::{Kernel, KernelConfig};
use pk_percpu::CoreId;
use pk_vfs::{DentryKey, InodeKind, PathWalker, Vfs, VfsError};
use std::collections::BTreeMap;
use std::time::Instant;

/// Simulated cores of the booted kernel.
pub const CORES: usize = 48;
/// Calls in the schedule (one round).
pub const SCHEDULE: usize = 4096;
/// Sites, directories per site and files per directory of the tree: a
/// choice. 1024 files spread lookups over many dcache buckets rather
/// than one hot path, and a file is five names deep, past the mount.
pub const TREE: (usize, usize, usize) = (4, 16, 16);
/// Passes over the schedule that price the path walk and dcache alone
/// in the traced run.
pub const PROBE_PASSES: usize = 4;

/// What a call should return, from the shadow model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// An inode of this kind and size.
    Node(InodeKind, u64),
    /// A directory listing, sorted.
    Listing(Vec<String>),
    /// `NotFound`.
    Absent,
}

/// The call an operation makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Vfs::stat`.
    Stat,
    /// `Vfs::open` then `Vfs::close`.
    Open,
    /// `Vfs::readdir`.
    Readdir,
}

/// One scheduled operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// The call.
    pub call: Call,
    /// Absolute path.
    pub path: String,
    /// The shadow model's answer.
    pub expect: Expect,
}

/// The booted kernel and the schedule, each call with the shadow
/// model's answer.
pub struct Setup {
    /// The kernel.
    pub kernel: Kernel,
    /// The calls of one round.
    pub ops: Vec<Op>,
}

fn children(shadow: &BTreeMap<String, (InodeKind, u64)>, dir: &str) -> Vec<String> {
    let prefix = format!("{dir}/");
    shadow
        .range(prefix.clone()..)
        .take_while(|(p, _)| p.starts_with(&prefix))
        .filter_map(|(p, _)| {
            let rest = &p[prefix.len()..];
            (!rest.contains('/')).then(|| rest.to_string())
        })
        .collect()
}

impl Setup {
    /// Boots the kernel, builds the tree and draws the schedule.
    pub fn new(seed: u64) -> Self {
        let kernel = Kernel::new(KernelConfig::pk(CORES));
        let vfs = kernel.vfs();
        let core = CoreId(0);
        let mut rng = Rng::new(seed);
        let mut shadow = BTreeMap::new();
        vfs.mkdir_p("/srv/www", core).expect("mkdir /srv/www");
        vfs.mounts().mount("/srv");
        shadow.insert("/srv".to_string(), (InodeKind::Dir, 0));
        shadow.insert("/srv/www".to_string(), (InodeKind::Dir, 0));
        let (sites, dirs, files) = TREE;
        let mut dir_paths = vec!["/srv".to_string(), "/srv/www".to_string()];
        let mut file_paths = Vec::new();
        for s in 0..sites {
            let site = format!("/srv/www/site{s}");
            vfs.mkdir(&site, core).expect("mkdir site");
            shadow.insert(site.clone(), (InodeKind::Dir, 0));
            dir_paths.push(site.clone());
            for d in 0..dirs {
                let dir = format!("{site}/d{d}");
                vfs.mkdir(&dir, core).expect("mkdir dir");
                shadow.insert(dir.clone(), (InodeKind::Dir, 0));
                dir_paths.push(dir.clone());
                for f in 0..files {
                    let path = format!("{dir}/f{f}.html");
                    // Sizes only tell inodes apart in the checks;
                    // no call of the schedule reads a file's bytes.
                    let size = 1 + rng.below(4096);
                    vfs.write_file(&path, &vec![b'a'; size as usize], core)
                        .expect("write file");
                    shadow.insert(path.clone(), (InodeKind::File, size));
                    file_paths.push(path);
                }
            }
        }
        // Directories may be listed or stat'ed; their size is whatever
        // the file system reports, so the shadow takes it from a stat
        // made now, before any timed call.
        for d in &dir_paths {
            let size = vfs.stat(d, core).expect("stat dir").size;
            shadow.insert(d.clone(), (InodeKind::Dir, size));
        }

        let pick = |v: &[String], rng: &mut Rng| v[rng.below(v.len() as u64) as usize].clone();
        // The mix is a choice, not a measurement. `stat` and `open`
        // get equal shares because Apache's `serve_file`, the one
        // roster workload that reads files by name, makes one `stat`
        // per `open`. No roster workload lists a directory or looks up
        // an absent name; readdir gets a fifth of the calls and absent
        // names 15%, enough for thousands of each per run.
        let ops = (0..SCHEDULE)
            .map(|i| {
                let r = rng.below(100);
                let absent = rng.below(100) < 15;
                let (call, path) = if r < 40 {
                    let path = if absent {
                        format!("{}/missing{i}", pick(&dir_paths, &mut rng))
                    } else if rng.below(10) == 0 {
                        pick(&dir_paths, &mut rng)
                    } else {
                        pick(&file_paths, &mut rng)
                    };
                    (Call::Stat, path)
                } else if r < 80 {
                    let path = if absent {
                        format!("{}/missing{i}.html", pick(&dir_paths, &mut rng))
                    } else {
                        pick(&file_paths, &mut rng)
                    };
                    (Call::Open, path)
                } else {
                    let path = if absent {
                        format!("{}/nodir{i}", pick(&dir_paths, &mut rng))
                    } else {
                        pick(&dir_paths, &mut rng)
                    };
                    (Call::Readdir, path)
                };
                let expect = match (call, shadow.get(&path)) {
                    (_, None) => Expect::Absent,
                    (Call::Readdir, Some(_)) => Expect::Listing(children(&shadow, &path)),
                    (_, Some(&(kind, size))) => Expect::Node(kind, size),
                };
                Op { call, path, expect }
            })
            .collect();
        let s = Self { kernel, ops };
        // Warm-up: the whole schedule once.
        s.round(&mut vec![0; SCHEDULE], &mut Samples::default(), &mut None);
        s
    }

    /// Runs the schedule once, writing each call's fingerprint into
    /// `slots` and, when `spans` is given, a span per call. Returns the
    /// calls made and the number that failed with an error the shadow
    /// did not predict.
    pub fn round(
        &self,
        slots: &mut [u64],
        op_us: &mut Samples,
        spans: &mut Option<&mut Spans>,
    ) -> (u64, u64) {
        let vfs = self.kernel.vfs();
        let mut calls = 0;
        let mut failed = 0;
        for (i, op) in self.ops.iter().enumerate() {
            let core = CoreId(i % CORES);
            let absent = op.expect == Expect::Absent;
            let fp = match op.call {
                Call::Stat => {
                    let r = timed(op_us, spans, "vfs.stat", || vfs.stat(&op.path, core));
                    fingerprint(r.map(|st| (st.kind, st.size)))
                }
                Call::Open => {
                    let r = timed(op_us, spans, "vfs.open", || vfs.open(&op.path, core));
                    let fp = fingerprint(
                        r.as_ref()
                            .map(|f| (f.inode.kind, f.inode.size()))
                            .map_err(|e| *e),
                    );
                    if let Ok(f) = r {
                        timed(op_us, spans, "vfs.close", || vfs.close(&f, core));
                        calls += 1;
                    }
                    fp
                }
                Call::Readdir => {
                    let r = timed(op_us, spans, "vfs.readdir", || vfs.readdir(&op.path, core));
                    listing_fingerprint(r)
                }
            };
            calls += 1;
            failed += u64::from(fp & 1 == 1 && !absent);
            slots[i] = fp;
        }
        (calls, failed)
    }

    /// The fingerprint each slot must hold.
    pub fn expected_slots(&self) -> Vec<u64> {
        self.ops
            .iter()
            .map(|op| match &op.expect {
                Expect::Absent => fingerprint(Err(VfsError::NotFound)),
                Expect::Node(kind, size) => fingerprint(Ok((*kind, *size))),
                Expect::Listing(names) => listing_fingerprint(Ok(names.clone())),
            })
            .collect()
    }
}

/// Times one call into `op_us`, as a span too in the traced run.
fn timed<T>(
    op_us: &mut Samples,
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let out = span_or_call(spans, None, name, f);
    op_us.push(t0.elapsed().as_secs_f64() * 1e6);
    out
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// A call's outcome as one number whose low bit is set on error.
pub fn fingerprint(r: Result<(InodeKind, u64), VfsError>) -> u64 {
    match r {
        Ok((kind, size)) => {
            fnv(
                FNV_BASIS ^ (kind == InodeKind::Dir) as u64,
                &size.to_le_bytes(),
            ) & !1
        }
        Err(e) => error_fingerprint(e),
    }
}

fn error_fingerprint(e: VfsError) -> u64 {
    // Every error the schedule can meet is `NotFound`; any other is
    // told apart by its text, off the common path.
    match e {
        VfsError::NotFound => 1,
        e => fnv(FNV_BASIS, e.to_string().as_bytes()) | 1,
    }
}

/// A listing's outcome as one number whose low bit is set on error.
pub fn listing_fingerprint(r: Result<Vec<String>, VfsError>) -> u64 {
    match r {
        Ok(names) => {
            names
                .iter()
                .fold(fnv(FNV_BASIS, &names.len().to_le_bytes()), |h, n| {
                    fnv(fnv(h, n.as_bytes()), b"/")
                })
                & !1
        }
        Err(e) => error_fingerprint(e),
    }
}

/// Checks every slot against the shadow model, naming the operation
/// that disagrees.
pub fn check(s: &Setup, slots: &[u64], report: &mut Report) {
    let want = s.expected_slots();
    for (i, op) in s.ops.iter().enumerate() {
        report.check(slots[i] == want[i], || {
            format!(
                "{:?} {}: result disagrees with the shadow model ({:?})",
                op.call, op.path, op.expect
            )
        });
    }
    let absent = s
        .ops
        .iter()
        .filter(|op| op.expect == Expect::Absent)
        .count();
    report.check(absent > 0 && absent < s.ops.len(), || {
        format!("{absent} absent names in the schedule")
    });
}

/// The untraced run: end-to-end metrics and checks.
pub fn run(seed: u64, seconds: u64) -> Report {
    let (s, setup_s) = repeated_setup(|| Setup::new(seed));
    let mut slots = vec![0u64; SCHEDULE];
    let mut failed = 0;
    let mut digests = Vec::new();
    let rcu0 = pk_sync::rcu::stats_snapshot();
    let timed = timed_phase(
        seconds,
        |op_us| {
            let (calls, f) = s.round(&mut slots, op_us, &mut None);
            failed += f;
            digests.push(slots.iter().fold(0u64, |a, &x| a.wrapping_add(x)));
            calls
        },
        |_| {},
    );
    let rcu1 = pk_sync::rcu::stats_snapshot();

    let mut report = Report::default();
    check(&s, &slots, &mut report);
    let want: u64 = s
        .expected_slots()
        .iter()
        .fold(0u64, |a, &x| a.wrapping_add(x));
    let off = digests.iter().filter(|&&d| d != want).count();
    report.check(off == 0, || {
        format!("{off} rounds disagree with the shadow model")
    });
    report.notes.push(format!(
        "rcu over the timed phase: {} synchronize, {} call_rcu",
        rcu1.synchronize_calls - rcu0.synchronize_calls,
        rcu1.call_rcu_calls - rcu0.call_rcu_calls
    ));
    report.attempted = timed.ops;
    report.failed = failed;
    report.finish_end_to_end(&timed, setup_s);
    report
}

/// The leaf's dentry key: `(parent inode, name)`; the parent always
/// exists in the schedule.
fn leaf_key(vfs: &Vfs, path: &str) -> DentryKey {
    let (parent, name) = path.rsplit_once('/').expect("absolute path");
    let ino = if parent.is_empty() {
        vfs.tmpfs().root()
    } else {
        vfs.stat(parent, CoreId(0)).expect("parent exists").ino
    };
    DentryKey::new(ino, name)
}

/// The traced run: a span per call, then the path walk and dcache
/// priced alone over the same paths.
pub fn traced(seed: u64, seconds: u64, spans: &mut Spans) -> Report {
    let s = Setup::new(seed);
    let vfs = s.kernel.vfs();
    let mut slots = vec![0u64; SCHEDULE];
    let mut failed = 0;
    let stats = vfs.stats();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    let before = [
        &stats.rcu_walks,
        &stats.rcu_walk_fallbacks,
        &stats.dcache_hits,
        &stats.dcache_misses,
    ]
    .map(load);
    let rcu0 = pk_sync::rcu::stats_snapshot();
    let timed = timed_phase(
        seconds,
        |op_us| {
            let (calls, f) = s.round(&mut slots, op_us, &mut Some(&mut *spans));
            failed += f;
            calls
        },
        |_| {},
    );
    let rcu1 = pk_sync::rcu::stats_snapshot();
    let after = [
        &stats.rcu_walks,
        &stats.rcu_walk_fallbacks,
        &stats.dcache_hits,
        &stats.dcache_misses,
    ]
    .map(load);
    let [walks, fallbacks, hits, misses] = [0, 1, 2, 3].map(|i| (after[i] - before[i]) as f64);

    let walker = PathWalker::new(vfs.tmpfs(), vfs.dcache(), vfs.mounts());
    let keys: Vec<DentryKey> = s.ops.iter().map(|op| leaf_key(vfs, &op.path)).collect();
    for _ in 0..PROBE_PASSES {
        for (i, op) in s.ops.iter().enumerate() {
            let core = CoreId(i % CORES);
            std::hint::black_box(spans.call("vfs.namei.resolve_rcu", None, || {
                walker.resolve_rcu(&op.path, core)
            }));
            let _ = std::hint::black_box(spans.call("vfs.namei.resolve_ref", None, || {
                walker.resolve_ref(&op.path, core)
            }));
            let d = spans.call("vfs.dcache.lookup", None, || {
                vfs.dcache().lookup(&keys[i], core)
            });
            if let Some(d) = d {
                d.put(core);
            }
        }
    }

    let mut report = Report::default();
    check(&s, &slots, &mut report);
    report.attempted = timed.ops;
    report.failed = failed;
    for (span, metric) in [
        ("vfs.stat", "vfs.stat_us"),
        ("vfs.open", "vfs.open_us"),
        ("vfs.close", "vfs.close_us"),
        ("vfs.readdir", "vfs.readdir_us"),
        ("vfs.namei.resolve_rcu", "vfs.namei.resolve_rcu_us"),
        ("vfs.namei.resolve_ref", "vfs.namei.resolve_ref_us"),
    ] {
        report.metric(metric, spans.median_us(span), "us");
    }
    report.metric(
        "vfs.dcache.lookup_ns",
        spans.median_us("vfs.dcache.lookup") * 1e3,
        "ns",
    );
    report.metric(
        "vfs.rcu_walk_hit_ratio",
        walks / (walks + fallbacks),
        "ratio",
    );
    report.metric("vfs.dcache_hit_ratio", hits / (hits + misses), "ratio");
    report.metric("vfs.rcu_walks_attempted", walks + fallbacks, "count");
    report.metric("vfs.dcache_lookups", hits + misses, "count");
    let sync = (rcu1.synchronize_calls - rcu0.synchronize_calls) as f64;
    let call_rcu = (rcu1.call_rcu_calls - rcu0.call_rcu_calls) as f64;
    report.metric("rcu.synchronize_per_op", sync / timed.ops as f64, "count");
    report.metric("rcu.call_rcu_per_op", call_rcu / timed.ops as f64, "count");
    report.metric("rcu.synchronize_calls", sync, "count");
    report.metric("rcu.call_rcu_calls", call_rcu, "count");
    report.finish_traced(&timed);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_untouched_tree_matches_its_shadow() {
        let s = Setup::new(11);
        let mut slots = vec![0u64; SCHEDULE];
        let (_, failed) = s.round(&mut slots, &mut Samples::default(), &mut None);
        assert_eq!(failed, 0);
        let mut ok = Report::default();
        check(&s, &slots, &mut ok);
        assert!(ok.correct(), "{:?}", ok.failures);
    }

    #[test]
    fn a_stat_returning_the_wrong_kind_is_rejected() {
        let s = Setup::new(11);
        let mut slots = vec![0u64; SCHEDULE];
        s.round(&mut slots, &mut Samples::default(), &mut None);
        let i = s
            .ops
            .iter()
            .position(|op| {
                op.call == Call::Stat && matches!(op.expect, Expect::Node(InodeKind::File, _))
            })
            .unwrap();
        let Expect::Node(_, size) = s.ops[i].expect else {
            unreachable!()
        };
        slots[i] = fingerprint(Ok((InodeKind::Dir, size)));
        let mut bad = Report::default();
        check(&s, &slots, &mut bad);
        assert_eq!(bad.failures.len(), 1, "{:?}", bad.failures);
    }

    #[test]
    fn an_absent_name_that_resolves_is_rejected() {
        let s = Setup::new(11);
        let mut slots = vec![0u64; SCHEDULE];
        s.round(&mut slots, &mut Samples::default(), &mut None);
        let i = s
            .ops
            .iter()
            .position(|op| op.expect == Expect::Absent)
            .unwrap();
        slots[i] = fingerprint(Ok((InodeKind::File, 1)));
        let mut bad = Report::default();
        check(&s, &slots, &mut bad);
        assert_eq!(bad.failures.len(), 1, "{:?}", bad.failures);
    }
}

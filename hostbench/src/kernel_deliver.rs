//! `kernel_deliver`: Exim's per-message delivery
//! (`pk_workloads::exim::EximDriver::deliver_message`) on a PK kernel
//! booted for 48 cores, on one OS thread that plays the cores in turn.
//!
//! Message `m` goes to user `schedule[m % SCHEDULE]` through the
//! connection handler of core `m % 48`. One operation is one delivered
//! message; one round is one message per core. Every [`EPOCH_ROUNDS`]
//! rounds, outside the timed phase, the epoch's mail is checked and the
//! mailboxes and the log are emptied, so that memory does not grow
//! with the number of messages a run manages to deliver.

use crate::harness::{median, repeated_setup, timed_phase, Report, Samples, Spans};
use crate::seed::Rng;
use pk_kernel::Kernel;
use pk_percpu::CoreId;
use pk_proc::Pid;
use pk_vfs::{InodeKind, VfsError};
use pk_workloads::exim::{EximDriver, MSG_BYTES, SPOOL_DIRS};
use pk_workloads::KernelChoice;
use std::cell::RefCell;
use std::time::Instant;

/// Simulated cores of the booted kernel.
pub const CORES: usize = 48;
/// Size of the user population messages are addressed to.
pub const USERS: u64 = 256;
/// Length of the seeded user schedule, reused cyclically.
pub const SCHEDULE: usize = 4096;
/// Rounds per epoch.
pub const EPOCH_ROUNDS: usize = 64;

/// A booted driver with one connection handler per core.
pub struct Setup {
    /// The Exim driver and its kernel.
    pub driver: EximDriver,
    /// Connection handler of each core.
    pub handlers: Vec<Pid>,
    /// Recipient of message `m` is `schedule[m % SCHEDULE]`.
    pub schedule: Vec<u64>,
    /// Messages sent so far (warm-up included).
    pub sent: u64,
    /// First message of the current epoch.
    pub epoch_start: u64,
    /// Process-table size once set-up ends.
    pub procs_before: usize,
}

impl Setup {
    fn new(seed: u64) -> Self {
        let driver = EximDriver::new(KernelChoice::Pk, CORES).expect("kernel boots");
        let handlers = (0..CORES)
            .map(|c| {
                driver
                    .kernel()
                    .fork(Pid(1), CoreId(c))
                    .expect("handler forks")
            })
            .collect();
        let mut rng = Rng::new(seed);
        let schedule = (0..SCHEDULE).map(|_| rng.below(USERS)).collect();
        let mut s = Self {
            driver,
            handlers,
            schedule,
            sent: 0,
            epoch_start: 0,
            procs_before: 0,
        };
        // Warm-up: one message per core.
        for _ in 0..CORES {
            s.deliver().expect("warm-up delivery");
        }
        s.procs_before = s.driver.kernel().procs().len();
        s
    }

    /// `(core, handler, msg_id, user)` of the next message.
    fn next(&mut self) -> (CoreId, Pid, u64, usize) {
        let m = self.sent;
        self.sent += 1;
        let core = (m % CORES as u64) as usize;
        (CoreId(core), self.handlers[core], m, self.user_of(m))
    }

    fn deliver(&mut self) -> Result<(), pk_kernel::KernelError> {
        let (core, conn, msg, user) = self.next();
        self.driver.deliver_message(core, conn, msg, user)
    }

    /// Delivers one message through the driver and times it.
    fn timed_delivery(&mut self, driver_us: &mut Samples) -> Result<(), pk_kernel::KernelError> {
        let t0 = Instant::now();
        let r = self.deliver();
        driver_us.push(t0.elapsed().as_secs_f64() * 1e6);
        r
    }

    fn user_of(&self, m: u64) -> usize {
        self.schedule[(m % SCHEDULE as u64) as usize] as usize
    }

    /// What the kernel should hold for the current epoch, from the
    /// benchmark's own schedule.
    pub fn expected(&self) -> Expected {
        let mut per_user = vec![0u64; USERS as usize];
        let mut ever = vec![false; USERS as usize];
        for m in 0..self.sent {
            let u = self.user_of(m);
            ever[u] = true;
            per_user[u] += u64::from(m >= self.epoch_start);
        }
        Expected {
            per_user,
            ever,
            ids: self.epoch_start..self.sent,
            procs: self.procs_before,
        }
    }

    /// Checks the epoch's mail, then empties the mailboxes and the log
    /// and starts the next epoch.
    pub fn end_epoch(&mut self, report: &mut Report) {
        let k = self.driver.kernel();
        check(&self.expected(), &Observed::read(k), report);
        let core = CoreId(0);
        let mailboxes = (0..USERS).map(|u| format!("/var/mail/user{u}"));
        for path in mailboxes.chain(["/var/log/exim".to_string()]) {
            if let Ok(f) = k.vfs().open(&path, core) {
                f.inode.truncate(0);
                k.vfs().close(&f, core);
            }
        }
        self.epoch_start = self.sent;
    }
}

/// What the kernel should hold at the end of an epoch.
pub struct Expected {
    /// Messages each user received in the epoch.
    pub per_user: Vec<u64>,
    /// Users who have a mailbox: any message since set-up began.
    pub ever: Vec<bool>,
    /// Message ids of the epoch.
    pub ids: std::ops::Range<u64>,
    /// Process-table size before the timed phase.
    pub procs: usize,
}

/// What the kernel holds after the run, read back through its public
/// calls, for the checks.
pub struct Observed {
    /// `stat` of every user's mailbox.
    pub mailbox: Vec<Result<(InodeKind, u64), VfsError>>,
    /// Every mailbox byte is the message body byte.
    pub mailbox_bytes_ok: bool,
    /// The delivery log's lines.
    pub log: Vec<String>,
    /// Entries left in the spool directories.
    pub spooled: usize,
    /// Process-table size.
    pub procs: usize,
}

impl Observed {
    /// Reads the kernel's state.
    pub fn read(k: &Kernel) -> Self {
        let core = CoreId(0);
        let vfs = k.vfs();
        let mut mailbox_bytes_ok = true;
        let mailbox = (0..USERS)
            .map(|u| {
                let path = format!("/var/mail/user{u}");
                let st = vfs.stat(&path, core)?;
                if st.kind == InodeKind::File {
                    mailbox_bytes_ok &= vfs.read_file(&path, core)?.iter().all(|&b| b == b'x');
                }
                Ok((st.kind, st.size))
            })
            .collect();
        let log = vfs
            .read_file("/var/log/exim", core)
            .map(|b| {
                String::from_utf8_lossy(&b)
                    .lines()
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        let spooled = (0..SPOOL_DIRS)
            .map(|d| {
                vfs.readdir(&format!("/var/spool/input/{d}"), core)
                    .map_or(1, |v| v.len())
            })
            .sum();
        Self {
            mailbox,
            mailbox_bytes_ok,
            log,
            spooled,
            procs: k.procs().len(),
        }
    }
}

/// Checks the kernel's state against the benchmark's own schedule:
/// each mailbox holds the epoch's messages × `MSG_BYTES`, the log one
/// `delivered` line per message of the epoch, the spool is empty and
/// the process table is back to its size before the run.
pub fn check(want: &Expected, seen: &Observed, report: &mut Report) {
    for (u, &n) in want.per_user.iter().enumerate() {
        let mailbox = if want.ever[u] {
            Ok((InodeKind::File, n * MSG_BYTES as u64))
        } else {
            Err(VfsError::NotFound)
        };
        report.check(seen.mailbox[u] == mailbox, || {
            format!(
                "user{u}: mailbox {:?}, schedule sent {n} messages",
                seen.mailbox[u]
            )
        });
    }
    report.check(seen.mailbox_bytes_ok, || {
        "a mailbox holds a byte other than the body's".into()
    });
    let mut ids: Vec<u64> = seen
        .log
        .iter()
        .filter_map(|l| l.strip_prefix("delivered ").and_then(|id| id.parse().ok()))
        .collect();
    ids.sort_unstable();
    let once = ids.len() == seen.log.len() && ids.iter().copied().eq(want.ids.clone());
    report.check(once, || {
        format!(
            "log has {} lines for messages {:?}, not one `delivered` line each",
            seen.log.len(),
            want.ids
        )
    });
    report.check(seen.spooled == 0, || {
        format!("{} files left in the spool", seen.spooled)
    });
    report.check(seen.procs == want.procs, || {
        format!(
            "process table holds {} entries, {} before the run",
            seen.procs, want.procs
        )
    });
}

/// The untraced run: end-to-end metrics and checks.
pub fn run(seed: u64, seconds: u64) -> Report {
    let (s, setup_s) = repeated_setup(|| Setup::new(seed));
    let s = RefCell::new(s);
    let report = RefCell::new(Report::default());
    let mut failed = 0;
    let timed = timed_phase(
        seconds,
        |op_us| {
            let mut s = s.borrow_mut();
            for _ in 0..CORES {
                let t0 = Instant::now();
                let r = s.deliver();
                op_us.push(t0.elapsed().as_secs_f64() * 1e6);
                failed += u64::from(r.is_err());
            }
            CORES as u64
        },
        |k| {
            if (k + 1) % EPOCH_ROUNDS == 0 {
                s.borrow_mut().end_epoch(&mut report.borrow_mut());
            }
        },
    );

    let mut s = s.into_inner();
    let mut report = report.into_inner();
    s.end_epoch(&mut report);
    report.check(s.driver.delivered() == s.sent - failed, || {
        format!(
            "driver counted {} deliveries of {}",
            s.driver.delivered(),
            s.sent
        )
    });
    report.attempted = timed.ops;
    report.failed = failed;
    report.finish_end_to_end(&timed, setup_s);
    report
}

/// One delivery replayed call by call through pk-kernel and pk-vfs,
/// the sequence `EximDriver::deliver_message` makes, one span per call
/// under one `exim.deliver` span. The driver's `bdb_cpu_count` is left
/// out: `EximDriver::new` caches the core count on its first message
/// (the warm-up's), so later deliveries make no kernel call for it.
fn replay(s: &mut Setup, spans: &mut Spans) -> Result<(), pk_kernel::KernelError> {
    let (core, conn, msg_id, user) = s.next();
    let k = s.driver.kernel();
    let vfs = k.vfs();
    let envelope = spans.open("exim.deliver", None);
    let p = envelope.index();
    let _req = pk_trace::RequestScope::enter(pk_trace::request_id(conn.0, user as u64, msg_id));
    let d1 = spans.call("kernel.fork", p, || k.fork(conn, core))?;
    let d2 = spans.call("kernel.fork", p, || k.fork(conn, core))?;
    let dir = (conn.0 as usize).wrapping_add(msg_id as usize) % SPOOL_DIRS;
    let spool = format!("/var/spool/input/{dir}/msg-{}-{msg_id}", conn.0);
    let body = [b'x'; MSG_BYTES];
    spans.call("vfs.write_file", p, || vfs.write_file(&spool, &body, core))?;
    let mbox = format!("/var/mail/user{user}");
    let f = match spans.call("vfs.open", p, || vfs.open(&mbox, core)) {
        Ok(f) => f,
        Err(VfsError::NotFound) => spans.call("vfs.create", p, || vfs.create(&mbox, core))?,
        Err(e) => return Err(e.into()),
    };
    spans.call("vfs.append", p, || f.append(&body))?;
    spans.call("vfs.close", p, || vfs.close(&f, core));
    spans.call("vfs.unlink", p, || vfs.unlink(&spool, core))?;
    let log = spans.call("vfs.open", p, || vfs.open("/var/log/exim", core))?;
    let line = format!("delivered {msg_id}\n");
    spans.call("vfs.append", p, || log.append(line.as_bytes()))?;
    spans.call("vfs.close", p, || vfs.close(&log, core));
    spans.call("kernel.exit", p, || k.exit(d1, core))?;
    spans.call("kernel.exit", p, || k.exit(d2, core))?;
    spans.close(envelope);
    Ok(())
}

/// How far the per-call medians, each weighted by its calls per
/// delivery, may miss the median of real `deliver_message` calls.
pub const ACCOUNTING_TOLERANCE: f64 = 0.10;

/// Real `deliver_message` calls timed after each traced round, outside
/// the timed phase, so that they sample the same stretch of time as
/// the replay they are compared with.
pub const DRIVER_PER_ROUND: usize = 8;

/// Calls of one delivery, by span name, for the per-layer medians.
pub const CALLS: [(&str, &str); 8] = [
    ("kernel.fork", "kernel.fork_us"),
    ("kernel.exit", "kernel.exit_us"),
    ("vfs.write_file", "vfs.write_file_us"),
    ("vfs.open", "vfs.open_us"),
    ("vfs.create", "vfs.create_us"),
    ("vfs.append", "vfs.append_us"),
    ("vfs.close", "vfs.close_us"),
    ("vfs.unlink", "vfs.unlink_us"),
];

/// The median of each of `calls`' spans, weighted by its spans per
/// delivery, summed: a delivery as the replay accounts for it, µs.
pub fn calls_us(spans: &Spans, deliveries: u64, calls: &[(&str, &str)]) -> f64 {
    calls
        .iter()
        .map(|&(span, _)| spans.median_us(span) * spans.count(span) as f64 / deliveries as f64)
        .sum()
}

/// Checks that the replay's per-call medians account for a real
/// delivery's median within [`ACCOUNTING_TOLERANCE`].
pub fn check_accounting(calls_us: f64, driver_us: f64, report: &mut Report) {
    report.check(
        (calls_us / driver_us - 1.0).abs() <= ACCOUNTING_TOLERANCE,
        || {
            format!(
                "replayed per-call medians add up to {calls_us:.1} µs, \
             a deliver_message call's median is {driver_us:.1} µs"
            )
        },
    );
}

/// The traced run: the delivery replayed with a span per call, and
/// real deliveries between rounds to check the replay against.
pub fn traced(seed: u64, seconds: u64, spans: &mut Spans) -> Report {
    let s = RefCell::new(Setup::new(seed));
    let warm = s.borrow().sent;
    let report = RefCell::new(Report::default());
    let mut failed = 0;
    let mut driver_us = Samples::default();
    let mut driver_failed = 0;
    let rcu0 = pk_sync::rcu::stats_snapshot();
    let timed = timed_phase(
        seconds,
        |_| {
            let mut s = s.borrow_mut();
            for _ in 0..CORES {
                failed += u64::from(replay(&mut s, spans).is_err());
            }
            CORES as u64
        },
        |k| {
            let mut s = s.borrow_mut();
            for _ in 0..DRIVER_PER_ROUND {
                driver_failed += u64::from(s.timed_delivery(&mut driver_us).is_err());
            }
            if (k + 1) % EPOCH_ROUNDS == 0 {
                s.end_epoch(&mut report.borrow_mut());
            }
        },
    );
    let rcu1 = pk_sync::rcu::stats_snapshot();

    let mut s = s.into_inner();
    let mut report = report.into_inner();
    s.end_epoch(&mut report);
    let driven = driver_us.seen();
    report.check(
        driver_failed == 0 && s.driver.delivered() == warm + driven,
        || {
            format!(
                "driver counted {} deliveries, {warm} warm-up and {driven} timed",
                s.driver.delivered()
            )
        },
    );
    report.attempted = timed.ops;
    report.failed = failed;
    for (span, metric) in CALLS {
        report.metric(metric, spans.median_us(span), "us");
    }
    let calls = calls_us(spans, timed.ops, &CALLS);
    let driver = median(&mut driver_us.sorted());
    check_accounting(calls, driver, &mut report);
    report.metric("kernel.delivery_us", spans.median_us("exim.deliver"), "us");
    report.metric("kernel.delivery_calls_us", calls, "us");
    report.metric("kernel.driver_delivery_us", driver, "us");
    report.metric("kernel.driver_deliveries", driven as f64, "count");
    // RCU counts cover the timed phase and the driver's deliveries
    // between rounds, so their base is both.
    let deliveries = (timed.ops + driven) as f64;
    let sync = (rcu1.synchronize_calls - rcu0.synchronize_calls) as f64;
    let call_rcu = (rcu1.call_rcu_calls - rcu0.call_rcu_calls) as f64;
    report.metric("rcu.synchronize_per_op", sync / deliveries, "count");
    report.metric("rcu.call_rcu_per_op", call_rcu / deliveries, "count");
    report.metric("rcu.synchronize_calls", sync, "count");
    report.metric("rcu.call_rcu_calls", call_rcu, "count");
    report.metric("kernel.deliveries", deliveries, "count");
    report.finish_traced(&timed);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mailbox_one_message_short_is_rejected() {
        let mut s = Setup::new(3);
        for _ in 0..100 {
            s.deliver().unwrap();
        }
        let want = s.expected();
        let mut ok = Report::default();
        check(&want, &Observed::read(s.driver.kernel()), &mut ok);
        assert!(ok.correct(), "{:?}", ok.failures);

        // Truncate one mailbox by one message, behind the driver's back.
        let u = want.per_user.iter().position(|&n| n > 1).unwrap();
        let k = s.driver.kernel();
        let body = vec![b'x'; (want.per_user[u] as usize - 1) * MSG_BYTES];
        k.vfs()
            .write_file(&format!("/var/mail/user{u}"), &body, CoreId(0))
            .unwrap();
        let mut bad = Report::default();
        check(&want, &Observed::read(k), &mut bad);
        assert_eq!(bad.failures.len(), 1, "{:?}", bad.failures);
        assert!(bad.failures[0].starts_with(&format!("user{u}:")));
    }

    #[test]
    fn a_missing_log_line_or_a_leftover_process_is_rejected() {
        let mut s = Setup::new(5);
        for _ in 0..10 {
            s.deliver().unwrap();
        }
        let mut seen = Observed::read(s.driver.kernel());
        seen.log.pop();
        seen.procs += 1;
        let mut bad = Report::default();
        check(&s.expected(), &seen, &mut bad);
        assert_eq!(bad.failures.len(), 2, "{:?}", bad.failures);
    }

    #[test]
    fn the_replay_accounts_for_a_delivery_and_fails_short_of_a_call() {
        let mut s = Setup::new(11);
        let mut spans = Spans::new();
        let mut driver_us = Samples::default();
        let mut replayed = 0;
        for _ in 0..2 * CORES {
            replay(&mut s, &mut spans).unwrap();
            replayed += 1;
            s.timed_delivery(&mut driver_us).unwrap();
        }
        let driver = median(&mut driver_us.sorted());
        let mut ok = Report::default();
        check_accounting(calls_us(&spans, replayed, &CALLS), driver, &mut ok);
        assert!(ok.correct(), "{:?}", ok.failures);

        // A replay that never unlinks the spool file.
        let dropped: Vec<_> = CALLS.into_iter().filter(|c| c.0 != "vfs.unlink").collect();
        let mut bad = Report::default();
        check_accounting(calls_us(&spans, replayed, &dropped), driver, &mut bad);
        assert_eq!(bad.failures.len(), 1, "{:?}", bad.failures);
    }

    #[test]
    fn epochs_empty_the_mail_and_keep_checking() {
        let mut s = Setup::new(7);
        let mut report = Report::default();
        for _ in 0..3 {
            for _ in 0..200 {
                s.deliver().unwrap();
            }
            s.end_epoch(&mut report);
        }
        assert!(report.correct(), "{:?}", report.failures);
        let log = s
            .driver
            .kernel()
            .vfs()
            .stat("/var/log/exim", CoreId(0))
            .unwrap();
        assert_eq!(log.size, 0);
    }
}

//! Small shared helpers: order-insensitive row digests, percentiles,
//! process memory, file sizes, and the result JSON writer.

use cods_storage::{Table, Value, ValueType};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::path::Path;

/// An order-insensitive digest of a row multiset: the row count plus the
/// wrapping sum of a 64-bit hash of each row. Two replies with the same
/// rows in any order digest equally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, row: &[Value]) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(row_hash(row));
    }

    pub fn add_all(&mut self, rows: &[Vec<Value>]) {
        for r in rows {
            self.add(r);
        }
    }

    pub fn of(rows: &[Vec<Value>]) -> Digest {
        let mut d = Digest::default();
        d.add_all(rows);
        d
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash of one row: FNV-1a over a tagged encoding of each value, finished
/// with a mixer so the multiset sum does not cancel structure.
pub fn row_hash(row: &[Value]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in row {
        h = match v {
            Value::Null => fnv(h, &[0]),
            Value::Bool(b) => fnv(fnv(h, &[1]), &[*b as u8]),
            Value::Int(i) => fnv(fnv(h, &[2]), &i.to_le_bytes()),
            Value::Float(f) => fnv(fnv(h, &[3]), &f.0.to_bits().to_le_bytes()),
            Value::Str(s) => fnv(
                fnv(fnv(h, &[4]), &(s.len() as u64).to_le_bytes()),
                s.as_bytes(),
            ),
        };
    }
    splitmix64(h)
}

/// Logical bytes of a table's values: 8 per integer or float, 1 per
/// boolean, the UTF-8 length of each string, 0 per NULL. Computed from
/// segment metadata (per-value row counts), so it never faults payloads.
pub fn logical_bytes(t: &Table) -> u64 {
    let mut total = 0u64;
    for (def, col) in t.schema().columns().iter().zip(t.columns()) {
        let width = |v: &Value| -> u64 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 8,
                Value::Str(s) => s.len() as u64,
            }
        };
        if matches!(def.ty, ValueType::Int | ValueType::Float | ValueType::Bool) {
            let nulls: u64 = match col.dict().id_of(&Value::Null) {
                Some(id) => col.segments().iter().map(|s| s.count_for(id)).sum(),
                None => 0,
            };
            let w = if def.ty == ValueType::Bool { 1 } else { 8 };
            total += (t.rows() - nulls) * w;
        } else {
            for seg in col.segments() {
                for (&id, &n) in seg.present_ids().iter().zip(seg.ones()) {
                    total += n * width(col.dict().value(id));
                }
            }
        }
    }
    total
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// The median, or 0 for a layer that recorded nothing.
pub fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Dead share of a catalog file's payload heap, from `heap_stats`.
pub fn dead_ratio(path: &Path) -> Result<f64, String> {
    let hs = cods_storage::heap_stats(path).map_err(|e| format!("heap_stats: {e}"))?;
    Ok(hs.dead_bytes as f64 / hs.heap_bytes.max(1) as f64)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Binds the process to the first CPU it may run on, and returns it.
/// Threads started later inherit the binding, so the client threads, the
/// server's threads and the speed probe all run on one core: where they
/// ran relative to each other moved a request's CPU time and the probe's
/// by up to 10% between runs. Call it before the process starts a thread.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is a writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..mask.len() * 8)
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of the size passed.
    if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Makes every thread allocate from glibc's one main arena. With an arena
/// per thread, which arena each server thread landed in depended on
/// thread timing, and `peak_rss_mb` on `query_paged` moved between 34 and
/// 46 MiB over runs of the same code; with one arena it repeats within
/// 1%. Call it before the process starts a thread.
pub fn one_malloc_arena() {
    // SAFETY: `mallopt` only sets an allocator parameter; it is called
    // before any other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

/// `CLOCK_THREAD_CPUTIME_ID`: the calling thread's CPU clock.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ms(clock: i32) -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (x86-64 and
    // aarch64 Linux layout: two 64-bit fields).
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6)
}

/// The CPU time the calling thread has run, in milliseconds. On a guest
/// with paravirtual steal accounting, time the hypervisor gave to another
/// tenant is not counted.
pub fn own_cpu_ms() -> f64 {
    cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID).unwrap_or(f64::NAN)
}

/// The CPU clock of another thread of this process, by kernel thread id.
#[derive(Clone, Copy, Debug)]
pub struct ThreadClock(i32);

impl ThreadClock {
    /// `MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)` of the Linux kernel.
    pub fn of(tid: u32) -> ThreadClock {
        ThreadClock(((!tid) << 3) as i32 | 6)
    }

    /// The thread's CPU time in milliseconds; `None` once it has exited.
    pub fn cpu_ms(self) -> Option<f64> {
        cpu_clock_ms(self.0)
    }
}

/// Kernel thread ids of this process's live threads.
pub fn thread_ids() -> std::collections::BTreeSet<u32> {
    std::fs::read_dir("/proc/self/task")
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Total bytes of the regular files directly inside `dir` (0 if absent).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A directory removed (with its contents) when dropped.
pub struct WorkDir(pub std::path::PathBuf);

impl WorkDir {
    pub fn create(path: std::path::PathBuf) -> std::io::Result<WorkDir> {
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One reported metric: name, value, unit and the samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// Formats a finite number for JSON with all its digits; non-finite
/// values (a ratio over an empty base) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Working set of [`speed_probe_ms`], built once per thread.
struct Probe {
    /// 512 KiB of bits, one in eight set.
    bits: Vec<u64>,
    ids: Vec<u32>,
    names: Vec<String>,
    keys: Vec<u64>,
}

impl Probe {
    fn new() -> Probe {
        let mut h = 0x5EED_u64;
        let mut next = || {
            h = splitmix64(h);
            h
        };
        let bits = (0..1 << 16).map(|_| next() & next() & next()).collect();
        let keys = (0..1 << 13).map(|_| next()).collect();
        Probe {
            bits,
            ids: Vec::with_capacity(1 << 17),
            names: (0..64).map(|i| format!("customer-{i:04}")).collect(),
            keys,
        }
    }

    /// What the query path does, in small: decode a bitmap into row ids,
    /// materialize and hash rows of strings, build a hash table.
    fn run(&mut self) -> u64 {
        self.ids.clear();
        for (w, &word) in self.bits.iter().enumerate() {
            let mut x = word;
            while x != 0 {
                self.ids.push((w * 64) as u32 + x.trailing_zeros());
                x &= x - 1;
            }
        }
        let rows: Vec<Vec<String>> = (0..4096)
            .map(|i| {
                (0..3)
                    .map(|j| self.names[(i * 7 + j) % 64].clone())
                    .collect()
            })
            .collect();
        let mut acc = self.ids.len() as u64;
        for s in rows.iter().flatten() {
            acc = fnv(acc, s.as_bytes());
        }
        let table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
            self.keys.iter().map(|&k| (k, k >> 3)).collect();
        acc.wrapping_add(table.len() as u64)
    }
}

/// A fixed CPU task of the benchmark's own, timed on the calling thread's
/// CPU clock: it decodes 512 KiB of bitmap into row ids, builds and hashes
/// 4096 rows of three strings, and builds an 8 Ki-entry hash table, about
/// 3 ms in all. The program never runs it, so its time moves only with
/// the speed the host gives the benchmark. Returns CPU ms.
pub fn speed_probe_ms() -> f64 {
    thread_local! {
        static PROBE: RefCell<Probe> = RefCell::new(Probe::new());
    }
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        let t0 = own_cpu_ms();
        std::hint::black_box(p.run());
        own_cpu_ms() - t0
    })
}

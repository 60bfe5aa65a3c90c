//! Command parsing and execution for the CODS shell.

use crate::query::{parse_query, tail_after};
use cods::Cods;
use cods_query::{AggExpr, ExecContext, Plan, Predicate};
use cods_server::Command;
use cods_storage::persist::{read_catalog, save_catalog};
use cods_storage::{load_file, segment_cache, LoadOptions, Schema, ValueType};
use cods_workload::figure1;

/// Result of running one command line.
pub enum Outcome {
    /// Keep reading commands.
    Continue,
    /// Exit the shell.
    Quit,
}

/// The help text (mirrors the buttons of the demo UI in Figure 4).
pub const HELP: &str = "\
commands:
  create <table> <name:type,...> [key=<col,...>]   create an empty table
  load <table> <file.csv> <name:type,...>          create and bulk-load from CSV
  demo                                             load the paper's Figure 1 table R
  tables                                           list tables
  display <table> [limit]                          show rows
  stats <table>                                    storage statistics (per-segment encoding
                                                   histogram, zones, run/distinct ratios,
                                                   per-segment chooser picks, buffer-cache
                                                   residency, per-file heap occupancy with
                                                   the dead bytes a vacuum would reclaim)
  cache [<bytes>|unlimited]                        show buffer-cache telemetry (budget,
                                                   resident bytes, hit/miss/eviction counts)
                                                   or set the byte budget (suffixes k/m/g)
  recode <table> <col|*> <rle|bitmap|auto> [a..b]  re-encode a column (or all) in place;
                                                   rle/bitmap pins, auto hands back to the
                                                   stats-driven per-segment chooser; a..b
                                                   restricts to a segment-index range
  decompose <in> <out1> <cols> <out2> <cols>       DECOMPOSE TABLE (cols: a,b,c)
  merge <left> <right> <out>                       MERGE TABLES (auto strategy)
  partition <in> <pred> <out1> <out2>              PARTITION TABLE (pred: see below)
  union <left> <right> <out>                       UNION TABLES (keeps inputs)
  copy <from> <to> | rename <from> <to> | drop <t> COPY/RENAME/DROP TABLE
  addcol <table> <name:type> <default>             ADD COLUMN
  dropcol <table> <col>                            DROP COLUMN
  renamecol <table> <from> <to>                    RENAME COLUMN
  exec <SMO statement>                             full statement language, e.g.
                                                   exec MERGE TABLES s, t INTO r
  run <file.smo>                                   plan + execute an SMO script atomically
                                                   (validated up front; all-or-nothing commit)
  plan <file.smo>                                  validate a script and print its DAG,
                                                   fusion decisions, and elided intermediates
  explain agg <table> by <cols|-> <op:col,…> [where <pred>]
  explain join <left> <right> on <lcol=rcol,…>     per-operator row estimates from resident
                                                   segment metadata, with the cost model's
                                                   chosen strategy and ranked rejected
                                                   alternatives (key packing, build side,
                                                   partition passes); the same tails as
                                                   `connect`'s agg/join (op: count, distinct,
                                                   sum, min, max; output named op(col))
  history                                          executed SMOs with timings, grouped per plan
  save <file> | open <file>                        persist / restore the catalog (open is
                                                   lazy: segment payloads load on demand;
                                                   re-saving appends only what changed)
  vacuum <file>                                    compact a saved catalog's payload heap,
                                                   reclaiming bytes append-saves left dead
                                                   (re-open afterwards to pick up the
                                                   compacted layout)
  wal <file>                                       durability status of a saved catalog:
                                                   rollback-journal state plus the commit
                                                   log's records / torn bytes / spill files
  help | quit
<pred>, the same in scripts, partition, explain and connect: `col op lit` joined
  by AND, OR, NOT and parentheses; op is = == != <> < <= > >=; lit is a number,
  true, false, null, a word or 'quoted text' ('' is a quote). An int literal on
  a float column is a float; digits on a str column need quotes (zip = '02139').
";

fn parse_schema(spec: &str) -> Result<Schema, String> {
    let mut cols = Vec::new();
    for part in spec.split(',') {
        let (name, ty) = part
            .split_once(':')
            .ok_or_else(|| format!("column spec {part:?} must be name:type"))?;
        cols.push((name.trim(), ty.trim().parse::<ValueType>()?));
    }
    Schema::build(&cols, &[]).map_err(|e| e.to_string())
}

/// Argument lists of the SMO shortcuts, for their usage errors.
const SHORTCUTS: [(&str, &str); 11] = [
    ("create", "<table> <name:type,...> [key=<col,...>]"),
    ("decompose", "<in> <out1> <a,b> <out2> <a,c>"),
    ("merge", "<left> <right> <out>"),
    ("partition", "<in> <pred> <out1> <out2>"),
    ("union", "<left> <right> <out>"),
    ("copy", "<from> <to>"),
    ("rename", "<from> <to>"),
    ("drop", "<table>"),
    ("addcol", "<table> <name:type> <default>"),
    ("dropcol", "<table> <col>"),
    ("renamecol", "<table> <from> <to>"),
];

/// The SMO statement a shortcut stands for. The shortcuts are sugar over
/// the statement language, so they share its parser, its type names and
/// its literal rule. `Ok(None)` when `cmd` is not a shortcut.
fn shortcut_statement(cmd: &str, args: &[&str], line: &str) -> Result<Option<String>, String> {
    let list = |cols: &str| cols.replace(',', ", ");
    Ok(Some(match (cmd, args) {
        ("create", [t, spec, key @ ..]) if key.len() <= 1 => {
            let key = match key.first().map(|k| k.strip_prefix("key=")) {
                None => String::new(),
                Some(Some(k)) => format!(", KEY {}", k.replace(',', " ")),
                Some(None) => return Err("create: the optional key list is key=<col,...>".into()),
            };
            format!("CREATE TABLE {t} ({}{key})", list(&spec.replace(':', " ")))
        }
        ("decompose", [i, o1, c1, o2, c2]) => {
            format!(
                "DECOMPOSE TABLE {i} INTO {o1} ({}), {o2} ({})",
                list(c1),
                list(c2)
            )
        }
        ("merge", [l, r, o]) => format!("MERGE TABLES {l}, {r} INTO {o}"),
        ("partition", [i, _, .., o1, o2]) => {
            // The predicate is the raw text between input and outputs.
            let pred = tail_after(line, 2)
                .strip_suffix(*o2)
                .and_then(|rest| rest.trim_end().strip_suffix(*o1))
                .unwrap_or_default();
            format!("PARTITION TABLE {i} WHERE {} INTO {o1}, {o2}", pred.trim())
        }
        ("union", [l, r, o]) => format!("UNION TABLES {l}, {r} INTO {o}"),
        ("copy", [from, to]) => format!("COPY TABLE {from} TO {to}"),
        ("rename", [from, to]) => format!("RENAME TABLE {from} TO {to}"),
        ("drop", [t]) => format!("DROP TABLE {t}"),
        ("addcol", [t, spec, default]) => {
            let def = spec.replacen(':', " ", 1);
            format!("ADD COLUMN {def} DEFAULT {default} TO {t}")
        }
        ("dropcol", [t, c]) => format!("DROP COLUMN {c} FROM {t}"),
        ("renamecol", [t, from, to]) => format!("RENAME COLUMN {from} TO {to} IN {t}"),
        _ => {
            return match SHORTCUTS.iter().find(|(c, _)| *c == cmd) {
                Some((c, usage)) => Err(format!("usage: {c} {usage}")),
                None => Ok(None),
            }
        }
    }))
}

const EXPLAIN_USAGE: &str = "usage: explain agg <table> by <cols|-> <op:col,…> [where <pred>] \
                             | explain join <left> <right> on <lcol=rcol,…>";

/// Renders the `stats` output: per-column segment-encoding histogram (a
/// mixed directory shows e.g. `4×bitmap/12×rle`), pin state, segment
/// directory shape, zone-map coverage and value range, run/distinct
/// ratios, the per-segment chooser's would-be picks, and compression
/// numbers.
pub fn render_stats(name: &str, t: &cods_storage::Table) -> String {
    use std::fmt::Write as _;
    let stats = cods_storage::TableStats::of(t);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{name}: {} rows, {} columns, {} bytes compressed, {} resident / {} on-disk segments",
        stats.rows, stats.arity, stats.total_bytes, stats.resident_segments, stats.on_disk_segments
    );
    for (def, c) in t.schema().columns().iter().zip(&stats.columns) {
        let enc = match c.encoding {
            Some(e) => e.to_string(),
            None => format!("{}×bitmap/{}×rle", c.bitmap_segments, c.rle_segments),
        };
        let pin = if c.encoding_pinned {
            " (pinned)".to_string()
        } else if c.pinned_segments > 0 {
            format!(" ({}×pinned)", c.pinned_segments)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  {:<12} enc={:<7}{} distinct={:<8} segments={:<5} max-seg-distinct={:<8} payload={}B ratio={:.1}x",
            def.name,
            enc,
            pin,
            c.distinct,
            c.segments,
            c.max_segment_distinct,
            c.payload_bytes,
            c.compression_ratio
        );
        let range = match &c.value_range {
            Some((lo, hi)) => format!("[{lo} .. {hi}]"),
            None => "(empty)".to_string(),
        };
        let _ = writeln!(
            out,
            "  {:<12} zones={}/{} range={} runs={} avg-run={:.1} run/distinct={:.1} chooser={}×bitmap/{}×rle{}",
            "",
            c.zoned_segments,
            c.segments,
            range,
            c.runs,
            c.avg_run_len,
            if c.distinct == 0 {
                0.0
            } else {
                c.runs as f64 / c.distinct as f64
            },
            c.chooser_bitmap_segments,
            c.chooser_rle_segments,
            if c.chooser_disagreements > 0 {
                format!(" ({} would re-encode)", c.chooser_disagreements)
            } else {
                String::new()
            }
        );
    }
    // Per-file heap occupancy: every v6 file this table's segments page
    // from, with the dead bytes a `vacuum` of that file would reclaim.
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for c in t.columns() {
        for s in c.segments() {
            if let Some(p) = s.backing_path() {
                if !files.contains(&p) {
                    files.push(p);
                }
            }
        }
    }
    for path in files {
        match cods_storage::heap_stats(&path) {
            Ok(h) => {
                let _ = writeln!(
                    out,
                    "  file {}: {} bytes ({} heap = {} live + {} dead, {} meta); vacuum reclaims ~{} bytes",
                    path.display(),
                    h.file_bytes,
                    h.heap_bytes,
                    h.live_bytes,
                    h.dead_bytes,
                    h.meta_bytes,
                    h.dead_bytes
                );
            }
            Err(e) => {
                let _ = writeln!(
                    out,
                    "  file {}: heap stats unavailable ({e})",
                    path.display()
                );
            }
        }
    }
    out
}

/// Renders the `cache` command's telemetry: the process-wide buffer-cache
/// budget, resident bytes, and fault/eviction counters.
pub fn render_cache() -> String {
    let s = segment_cache().stats();
    let budget = if s.budget == u64::MAX {
        "unlimited".to_string()
    } else {
        format!("{} bytes", s.budget)
    };
    format!(
        "buffer cache: budget={budget} resident={} bytes\n\
         faults: {} hits, {} misses ({} bytes decoded), {} evictions\n",
        s.resident_bytes, s.hits, s.misses, s.decoded_bytes, s.evictions
    )
}

/// Parses the `cache` command's byte-budget argument: a plain byte count
/// or one with a binary k/m/g suffix, or `unlimited`.
fn parse_budget(spec: &str) -> Result<u64, String> {
    if spec == "unlimited" {
        return Ok(u64::MAX);
    }
    let (digits, unit) = match spec.as_bytes().last() {
        Some(b'k' | b'K') => (&spec[..spec.len() - 1], 1u64 << 10),
        Some(b'm' | b'M') => (&spec[..spec.len() - 1], 1u64 << 20),
        Some(b'g' | b'G') => (&spec[..spec.len() - 1], 1u64 << 30),
        _ => (spec, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad byte budget {spec:?} (use e.g. 4096, 64m, unlimited)"))?;
    n.checked_mul(unit)
        .ok_or_else(|| format!("byte budget {spec:?} overflows"))
}

/// Parses the `recode` command's optional segment-range argument
/// (`from..to`, segment indices, end exclusive).
fn parse_segment_range(spec: &str) -> Result<std::ops::Range<usize>, String> {
    let (from, to) = spec
        .split_once("..")
        .ok_or_else(|| format!("segment range {spec:?} must be from..to"))?;
    let from: usize = from
        .trim()
        .parse()
        .map_err(|_| format!("bad range start {from:?}"))?;
    let to: usize = to
        .trim()
        .parse()
        .map_err(|_| format!("bad range end {to:?}"))?;
    Ok(from..to)
}

/// Executes one command line against the platform.
pub fn run_command(cods: &mut Cods, line: &str) -> Result<Outcome, String> {
    let mut parts = line.split_whitespace();
    let Some(cmd) = parts.next() else {
        return Ok(Outcome::Continue);
    };
    let args: Vec<&str> = parts.collect();
    if let Some(stmt) = shortcut_statement(cmd, &args, line)? {
        let smo = cods::parse_smo(&stmt).map_err(|e| e.to_string())?;
        let status = cods.execute(smo).map_err(|e| e.to_string())?;
        print!("{}", status.render());
        return Ok(Outcome::Continue);
    }
    match cmd {
        "help" => print!("{HELP}"),
        "quit" | "exit" => return Ok(Outcome::Quit),
        "demo" => {
            cods.catalog()
                .create(figure1::table_r())
                .map_err(|e| e.to_string())?;
            println!("loaded Figure 1 table R (7 rows)");
        }
        "tables" => {
            for name in cods.catalog().table_names() {
                let t = cods.table(&name).map_err(|e| e.to_string())?;
                println!(
                    "  {name}: {} rows, columns [{}]",
                    t.rows(),
                    t.schema().names().join(", ")
                );
            }
        }
        "load" => {
            let [name, file, spec] = args.as_slice() else {
                return Err("usage: load <table> <file.csv> <name:type,...>".into());
            };
            let schema = parse_schema(spec)?;
            let t = load_file(name, &schema, file, &LoadOptions::default())
                .map_err(|e| e.to_string())?;
            let rows = t.rows();
            cods.catalog().create(t).map_err(|e| e.to_string())?;
            println!("loaded {rows} rows into {name}");
        }
        "display" => {
            let Some(name) = args.first() else {
                return Err("usage: display <table> [limit]".into());
            };
            let limit: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20);
            let t = cods.table(name).map_err(|e| e.to_string())?;
            println!("{}", t.schema().names().join(" | "));
            for i in 0..t.rows().min(limit) {
                let cells: Vec<String> = t.row(i).iter().map(|v| v.to_string()).collect();
                println!("{}", cells.join(" | "));
            }
            if t.rows() > limit {
                println!("… ({} more rows)", t.rows() - limit);
            }
        }
        "stats" => {
            let Some(name) = args.first() else {
                return Err("usage: stats <table>".into());
            };
            let t = cods.table(name).map_err(|e| e.to_string())?;
            print!("{}", render_stats(name, &t));
        }
        "cache" => match args.as_slice() {
            [] => print!("{}", render_cache()),
            [spec] => {
                let budget = parse_budget(spec)?;
                segment_cache().set_budget(budget);
                if budget == u64::MAX {
                    println!("buffer cache budget: unlimited");
                } else {
                    println!("buffer cache budget: {budget} bytes");
                }
            }
            _ => return Err("usage: cache [<bytes>|unlimited]".into()),
        },
        "recode" => {
            let (name, col, enc, range) = match args.as_slice() {
                [name, col, enc] => (*name, *col, *enc, None),
                [name, col, enc, range] => (*name, *col, *enc, Some(parse_segment_range(range)?)),
                _ => {
                    return Err("usage: recode <table> <col|*> <rle|bitmap|auto> [from..to]".into())
                }
            };
            // `auto` hands back to the stats-driven chooser (clearing any
            // pin); an explicit encoding pins against it.
            let encoding = match enc {
                "auto" => None,
                "rle" => Some(cods_storage::Encoding::Rle),
                "bitmap" => Some(cods_storage::Encoding::Bitmap),
                other => return Err(format!("unknown encoding {other:?} (use rle/bitmap/auto)")),
            };
            let t = cods.table(name).map_err(|e| e.to_string())?;
            let mix = |c: &cods_storage::EncodedColumn| {
                let (b, r) = c.encoding_counts();
                format!("{b}\u{d7}bitmap/{r}\u{d7}rle")
            };
            if let Some(range) = range {
                // Segment-range form: touch only the named column's
                // segments with indices in [from, to).
                if col == "*" {
                    return Err("segment ranges need a named column, not *".into());
                }
                let out = match encoding {
                    None => t.auto_encode_column_range(col, range.clone()),
                    Some(e) => t.with_column_segment_range_encoding(col, e, range.clone()),
                }
                .map_err(|e| e.to_string())?;
                let how = match encoding {
                    None => {
                        let c = out.column_by_name(col).expect("recoded column exists");
                        format!("by chooser: now {}", mix(c))
                    }
                    Some(e) => format!("to {e} (pinned)"),
                };
                cods.catalog().put(out);
                println!(
                    "recoded {name}.{col} segments {}..{} {how}",
                    range.start, range.end
                );
                return Ok(Outcome::Continue);
            }
            let names: Vec<String> = match col {
                "*" => t.schema().names().iter().map(|s| s.to_string()).collect(),
                c => vec![c.to_string()],
            };
            let mut out = (*t).clone();
            for n in &names {
                out = match encoding {
                    None => out.auto_encode_column(n),
                    Some(e) => out.with_column_encoding_pinned(n, e),
                }
                .map_err(|e| e.to_string())?;
            }
            let how = match encoding {
                Some(e) => format!("to {e} (pinned)"),
                None => {
                    let picks: Vec<String> = names
                        .iter()
                        .map(|n| {
                            let c = out.column_by_name(n).expect("recoded column exists");
                            match c.uniform_encoding() {
                                Some(e) => format!("{n}={e}"),
                                None => format!("{n}={}", mix(c)),
                            }
                        })
                        .collect();
                    format!("by chooser: {}", picks.join(", "))
                }
            };
            cods.catalog().put(out);
            println!("recoded {name}.{col} {how}");
        }
        "exec" => {
            // Full SMO statement language (see cods::parser), e.g.
            //   exec DECOMPOSE TABLE R INTO S (employee, skill), T (employee, address)
            let smo = cods::parse_smo(tail_after(line, 1)).map_err(|e| e.to_string())?;
            let status = cods.execute(smo).map_err(|e| e.to_string())?;
            print!("{}", status.render());
        }
        "run" => {
            // The whole script goes through the planner: validated against
            // one catalog snapshot up front, executed with fusion and DAG
            // parallelism, committed atomically. A failure anywhere — parse,
            // validation, or a data-dependent error mid-script — leaves the
            // catalog untouched.
            let [file] = args.as_slice() else {
                return Err("usage: run <script.smo>".into());
            };
            let text = std::fs::read_to_string(file).map_err(|e| e.to_string())?;
            let plan = cods.plan_script(&text).map_err(|e| e.to_string())?;
            let n = plan.nodes().len();
            let report = plan.execute().map_err(|e| e.to_string())?;
            print!("{}", report.log.render());
            println!(
                "executed {n} operator{} from {file} (atomic commit: {} put{}, {} drop{}, {} intermediate{} elided)",
                if n == 1 { "" } else { "s" },
                report.committed_puts,
                if report.committed_puts == 1 { "" } else { "s" },
                report.committed_drops,
                if report.committed_drops == 1 { "" } else { "s" },
                report.elided.len(),
                if report.elided.len() == 1 { "" } else { "s" },
            );
        }
        "plan" => {
            let [file] = args.as_slice() else {
                return Err("usage: plan <script.smo>".into());
            };
            let text = std::fs::read_to_string(file).map_err(|e| e.to_string())?;
            let plan = cods.plan_script(&text).map_err(|e| e.to_string())?;
            print!("{}", plan.describe());
        }
        "explain" => {
            let kind = args.first().copied().unwrap_or_default();
            let plan = match parse_query(kind, tail_after(line, 2)) {
                Ok(Command::GroupBy {
                    table,
                    predicate,
                    group_by,
                    aggs,
                }) => {
                    let scan = Plan::ScanColumn { table };
                    let input = match predicate {
                        Predicate::True => scan,
                        p => scan.filter(p),
                    };
                    Plan::Aggregate {
                        input: Box::new(input),
                        group_by,
                        aggs: aggs
                            .into_iter()
                            .map(|(op, c)| AggExpr::named(op, c))
                            .collect(),
                    }
                }
                Ok(Command::Join {
                    left,
                    right,
                    left_keys,
                    right_keys,
                }) => Plan::HashJoin {
                    left: Box::new(Plan::ScanColumn { table: left }),
                    right: Box::new(Plan::ScanColumn { table: right }),
                    left_keys,
                    right_keys,
                },
                Err(e) if matches!(kind, "agg" | "join") => return Err(e),
                _ => return Err(EXPLAIN_USAGE.into()),
            };
            let ctx = ExecContext {
                catalog: Some(cods.catalog()),
                row_db: None,
            };
            print!(
                "{}",
                cods_query::explain(&plan, ctx).map_err(|e| e.to_string())?
            );
        }
        "history" => {
            // Records of one plan are contiguous and share a plan id;
            // multi-operator plans print grouped under one header.
            let hist = cods.history();
            let mut i = 0;
            while i < hist.len() {
                let id = hist[i].plan_id;
                let mut j = i + 1;
                while id.is_some() && j < hist.len() && hist[j].plan_id == id {
                    j += 1;
                }
                if j - i > 1 {
                    println!(
                        "  plan #{} ({} operators, atomic commit):",
                        id.expect("grouped records carry a plan id"),
                        j - i
                    );
                    for rec in &hist[i..j] {
                        println!(
                            "    {:<58} {:>9.3} ms",
                            rec.operator,
                            rec.status.total.as_secs_f64() * 1e3
                        );
                    }
                } else {
                    println!(
                        "  {:<60} {:>9.3} ms",
                        hist[i].operator,
                        hist[i].status.total.as_secs_f64() * 1e3
                    );
                }
                i = j;
            }
        }
        "save" => {
            let [file] = args.as_slice() else {
                return Err("usage: save <file>".into());
            };
            save_catalog(cods.catalog(), file).map_err(|e| e.to_string())?;
            println!("saved catalog to {file}");
        }
        "open" => {
            let [file] = args.as_slice() else {
                return Err("usage: open <file>".into());
            };
            let catalog = read_catalog(file).map_err(|e| e.to_string())?;
            *cods = Cods::with_catalog(catalog);
            println!("opened catalog from {file}");
        }
        "wal" => {
            let [file] = args.as_slice() else {
                return Err("usage: wal <file>".into());
            };
            let path = std::path::Path::new(file);
            match cods_storage::journal_status(path) {
                cods_storage::JournalStatus::Absent => {
                    println!("journal: none (no save in progress)")
                }
                cods_storage::JournalStatus::Sealed { bytes } => println!(
                    "journal: sealed, {bytes} bytes (an interrupted save will roll back on open)"
                ),
                cods_storage::JournalStatus::Torn { bytes } => println!(
                    "journal: torn, {bytes} bytes (crashed before seal; discarded on open)"
                ),
            }
            let s = cods_storage::log_status(path).map_err(|e| e.to_string())?;
            if !s.exists {
                println!("commit log: none (catalog not opened durably)");
            } else {
                println!(
                    "commit log: {} record(s) pending checkpoint, {} valid bytes{}",
                    s.records,
                    s.valid_bytes,
                    if s.torn_bytes > 0 {
                        format!(" (+{} torn tail bytes, discarded on open)", s.torn_bytes)
                    } else {
                        String::new()
                    }
                );
                println!("spills: {} file(s), {} bytes", s.spill_files, s.spill_bytes);
            }
        }
        "vacuum" => {
            let [file] = args.as_slice() else {
                return Err("usage: vacuum <file>".into());
            };
            let report = cods_storage::vacuum_file(file).map_err(|e| e.to_string())?;
            println!(
                "vacuumed {file}: {} -> {} bytes ({} reclaimed; {} live payload bytes across {} segments)",
                report.before_bytes,
                report.after_bytes,
                report.reclaimed_bytes(),
                report.live_payload_bytes,
                report.segments
            );
        }
        other => return Err(format!("unknown command {other:?} (try: help)")),
    }
    Ok(Outcome::Continue)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shell() -> Cods {
        Cods::new()
    }

    fn run(cods: &mut Cods, line: &str) {
        run_command(cods, line).unwrap_or_else(|e| panic!("{line:?} failed: {e}"));
    }

    #[test]
    fn explain_command_parses_both_shapes() {
        let mut cods = shell();
        run(&mut cods, "demo");
        run(&mut cods, "copy R R2");
        // Output goes to stdout; here we only check the commands parse,
        // resolve columns, and execute without error. Rendering is
        // covered by cods_query's explain tests.
        run(&mut cods, "explain agg R by employee count:skill");
        run(
            &mut cods,
            "explain agg R by - count:skill where employee = 'Jones' or skill=Typing",
        );
        run(&mut cods, "explain join R R2 on employee=employee");
        assert!(run_command(&mut cods, "explain agg").is_err());
        assert!(run_command(&mut cods, "explain join R R2 on employee").is_err());
        assert!(run_command(&mut cods, "explain agg R by employee bogus:skill").is_err());
        assert!(run_command(&mut cods, "explain count R").is_err());
        // Resolution errors surface too: unknown aggregate column, unequal
        // join key lists, an ill-typed literal.
        assert!(run_command(&mut cods, "explain agg R by employee count:nope").is_err());
        assert!(run_command(&mut cods, "explain join R R2 on employee=employee,skill").is_err());
        assert!(run_command(&mut cods, "explain agg R by - count:skill where skill = 3").is_err());
    }

    #[test]
    fn demo_decompose_merge_flow() {
        let mut cods = shell();
        run(&mut cods, "demo");
        run(&mut cods, "decompose R S employee,skill T employee,address");
        assert!(cods.catalog().contains("S"));
        assert_eq!(cods.table("T").unwrap().rows(), 4);
        run(&mut cods, "merge S T R2");
        assert_eq!(cods.table("R2").unwrap().rows(), 7);
        assert_eq!(cods.history().len(), 2);
    }

    #[test]
    fn create_and_column_commands() {
        let mut cods = shell();
        run(&mut cods, "create t id:int,name:str key=id");
        assert!(cods.catalog().contains("t"));
        // The CLI reads the same type names as SMO scripts.
        run(&mut cods, "create u a:integer,b:varchar,c:double,d:boolean");
        assert_eq!(
            cods.table("u").unwrap().schema().columns()[2].ty,
            ValueType::Float
        );
        run(&mut cods, "drop u");
        run(&mut cods, "addcol t dept:str eng");
        assert!(cods.table("t").unwrap().schema().contains("dept"));
        run(&mut cods, "renamecol t dept division");
        assert!(cods.table("t").unwrap().schema().contains("division"));
        run(&mut cods, "dropcol t division");
        assert_eq!(cods.table("t").unwrap().arity(), 2);
        run(&mut cods, "copy t t2");
        run(&mut cods, "rename t2 t3");
        run(&mut cods, "drop t3");
        assert_eq!(cods.catalog().table_names(), vec!["t"]);
    }

    #[test]
    fn recode_and_stats_report_rle_segments() {
        let mut cods = shell();
        run(&mut cods, "demo");
        // Bitmap columns report their segment directory...
        let t = cods.table("R").unwrap();
        let before = render_stats("R", &t);
        assert!(before.contains("enc=bitmap"), "stats: {before}");
        assert!(before.contains("segments=1"), "stats: {before}");
        assert!(!before.contains("enc=rle"), "stats: {before}");
        // ...and after recoding, RLE columns report theirs too (the old
        // stats path simply had no RLE columns to count).
        run(&mut cods, "recode R skill rle");
        let t = cods.table("R").unwrap();
        let after = render_stats("R", &t);
        assert!(after.contains("enc=rle"), "stats: {after}");
        assert_eq!(
            after.matches("segments=1").count(),
            3,
            "RLE column must report its segment count: {after}"
        );
        assert!(t
            .column_by_name("skill")
            .unwrap()
            .is_uniform(cods_storage::Encoding::Rle));
        // Whole-table recode and round trip back.
        run(&mut cods, "recode R * rle");
        assert!(cods
            .table("R")
            .unwrap()
            .columns()
            .iter()
            .all(|c| c.is_uniform(cods_storage::Encoding::Rle)));
        run(&mut cods, "recode R * bitmap");
        assert!(cods
            .table("R")
            .unwrap()
            .columns()
            .iter()
            .all(|c| c.is_uniform(cods_storage::Encoding::Bitmap)));
        assert_eq!(cods.table("R").unwrap().rows(), 7);
        // Bad arguments are rejected.
        assert!(run_command(&mut cods, "recode R skill zigzag").is_err());
        assert!(run_command(&mut cods, "recode missing skill rle").is_err());
    }

    #[test]
    fn stats_report_zones_ratios_and_chooser_pick() {
        let mut cods = shell();
        run(&mut cods, "demo");
        let t = cods.table("R").unwrap();
        let out = render_stats("R", &t);
        // Zone coverage: every segment of every column carries a zone.
        assert_eq!(out.matches("zones=1/1").count(), 3, "stats: {out}");
        // Value range folded from the zone maps.
        assert!(out.contains("range=[Ellis .. Roberts]"), "stats: {out}");
        // Run/distinct ratios and the chooser's pick are reported per
        // column; nothing is pinned yet.
        assert!(out.contains("runs="), "stats: {out}");
        assert!(out.contains("run/distinct="), "stats: {out}");
        assert!(out.contains("chooser="), "stats: {out}");
        assert!(!out.contains("(pinned)"), "stats: {out}");

        // An explicit recode pins and is reported as such; the chooser
        // line flags the disagreement when its pick differs.
        run(&mut cods, "recode R skill rle");
        let out = render_stats("R", &cods.table("R").unwrap());
        assert!(out.contains("enc=rle     (pinned)"), "stats: {out}");

        // `recode ... auto` hands the column back to the per-segment
        // chooser: pin cleared and every segment matches the chooser's own
        // pick for it.
        run(&mut cods, "recode R skill auto");
        let t = cods.table("R").unwrap();
        let col = t.column_by_name("skill").unwrap();
        assert!(!col.encoding_pinned());
        assert!((0..col.segment_count())
            .all(|i| col.segment_encoding(i) == col.choose_segment_encoding(i)));
        // Whole-table auto brings every segment to the chooser's pick, so
        // no stats line flags a pending re-encode any more.
        run(&mut cods, "recode R * auto");
        let t = cods.table("R").unwrap();
        assert!(t
            .columns()
            .iter()
            .all(|c| !c.encoding_pinned() && !c.needs_auto_recode()));
        let out = render_stats("R", &t);
        assert!(!out.contains("would re-encode"), "stats: {out}");
    }

    #[test]
    fn recode_segment_range_form_mixes_and_pins() {
        let mut cods = shell();
        run(&mut cods, "demo");
        // The demo table has one segment per column: range 0..1 recodes and
        // pins that single segment without touching the column-level pin.
        run(&mut cods, "recode R skill rle 0..1");
        let t = cods.table("R").unwrap();
        let col = t.column_by_name("skill").unwrap();
        assert!(col.is_uniform(cods_storage::Encoding::Rle));
        assert!(!col.encoding_pinned(), "range recode is not a column pin");
        assert!(col.segment_pinned(0), "range recode pins its segments");
        let out = render_stats("R", &t);
        assert!(out.contains("(1\u{d7}pinned)"), "stats: {out}");
        // `auto` over the range clears the pin and re-applies the chooser.
        run(&mut cods, "recode R skill auto 0..1");
        let t = cods.table("R").unwrap();
        let col = t.column_by_name("skill").unwrap();
        assert!(!col.segment_pinned(0));
        assert_eq!(col.segment_encoding(0), col.choose_segment_encoding(0));
        // Bad ranges and `*` with a range are rejected.
        assert!(run_command(&mut cods, "recode R skill rle 5..9").is_err());
        assert!(run_command(&mut cods, "recode R skill rle 1").is_err());
        assert!(run_command(&mut cods, "recode R * rle 0..1").is_err());
    }

    #[test]
    fn stats_report_mixed_directory_histogram() {
        // A multi-segment table loaded through the CLI, with half of one
        // column's segments recoded RLE: stats must show the histogram.
        let dir = std::env::temp_dir().join("cods_cli_mixed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("mixed.csv");
        let csv: String = (0..400).map(|i| format!("{}\n", i / 50)).collect();
        std::fs::write(&file, csv).unwrap();
        let mut cods = shell();
        run(&mut cods, &format!("load t {} k:int", file.display()));
        // Re-segment small enough to get several segments.
        let small = cods.table("t").unwrap().to_rows();
        let schema = cods.table("t").unwrap().schema().clone();
        let resegmented =
            cods_storage::Table::from_rows_with_segment_rows("t", schema, &small, 100).unwrap();
        cods.catalog().put(resegmented);
        run(&mut cods, "recode t k rle 0..2");
        let t = cods.table("t").unwrap();
        assert_eq!(t.column(0).encoding_counts(), (2, 2));
        let out = render_stats("t", &t);
        assert!(out.contains("enc=2\u{d7}bitmap/2\u{d7}rle"), "stats: {out}");
        assert!(out.contains("(2\u{d7}pinned)"), "stats: {out}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn partition_and_union_commands() {
        let mut cods = shell();
        run(&mut cods, "demo");
        run(&mut cods, "partition R employee=Jones jones others");
        assert_eq!(cods.table("jones").unwrap().rows(), 3);
        assert_eq!(cods.table("others").unwrap().rows(), 4);
        run(&mut cods, "union jones others R");
        assert_eq!(cods.table("R").unwrap().rows(), 7);
    }

    #[test]
    fn partition_reads_the_shared_predicate_grammar() {
        let mut cods = shell();
        run(&mut cods, "create t v:int");
        for expr in [
            "v=3",
            "v == 3",
            "v!=3",
            "v <> 3",
            "v<3",
            "v <= 3",
            "v>3",
            "v >= 3 AND NOT (v = 4 OR v = 5)",
        ] {
            run(&mut cods, &format!("partition t {expr} a b"));
            run(&mut cods, "union a b t");
            run(&mut cods, "drop a");
            run(&mut cods, "drop b");
        }
        assert!(run_command(&mut cods, "partition t nonsense a b").is_err());
        assert!(run_command(&mut cods, "partition t missing=1 a b").is_err());
        assert!(run_command(&mut cods, "partition t a b").is_err());
    }

    #[test]
    fn local_literals_are_typed_by_the_one_rule() {
        let mut cods = shell();
        run(&mut cods, "create t price:double,zip:varchar,name:text");
        let rows = [
            (1.5, "02139", "salt and pepper"),
            (2.5, "10001", "x"),
            (7.0, "02139", "y"),
        ];
        let rows: Vec<Vec<cods_storage::Value>> = rows
            .iter()
            .map(|&(p, z, n)| {
                vec![
                    cods_storage::Value::float(p),
                    cods_storage::Value::str(z),
                    cods_storage::Value::str(n),
                ]
            })
            .collect();
        let schema = cods.table("t").unwrap().schema().clone();
        cods.catalog()
            .put(cods_storage::Table::from_rows("t", schema, &rows).unwrap());
        // PARTITION consumes its input: split a fresh copy each time.
        let selected = |cods: &mut Cods, pred: &str| -> Result<u64, String> {
            run(cods, "copy t p");
            let out = run_command(cods, &format!("partition p {pred} s r"));
            let rows = out.map(|_| cods.table("s").unwrap().rows());
            for t in ["p", "s", "r"] {
                let _ = run_command(cods, &format!("drop {t}"));
            }
            rows
        };
        // An int literal on a float column compares as a float.
        assert_eq!(selected(&mut cods, "price<3"), Ok(2));
        // Digits on a str column must be quoted; quoted they select.
        let err = selected(&mut cods, "zip=02139").unwrap_err();
        assert!(err.contains("zip") && err.contains("quote"), "{err}");
        assert_eq!(selected(&mut cods, "zip = '02139'"), Ok(2));
        // Quoted literals keep their keywords and spaces.
        assert_eq!(selected(&mut cods, "name = 'salt and pepper'"), Ok(1));
        // ADD COLUMN defaults follow the same rule.
        run(&mut cods, "addcol t rate:float 2");
        assert!(run_command(&mut cods, "addcol t code:str 7").is_err());
        run(&mut cods, "addcol t code:str '7'");
        assert_eq!(
            cods.table("t").unwrap().row(0)[3],
            cods_storage::Value::float(2.0)
        );
    }

    #[test]
    fn exec_statement_language() {
        let mut cods = shell();
        run(&mut cods, "demo");
        run(
            &mut cods,
            "exec DECOMPOSE TABLE R INTO S (employee, skill), T (employee, address)",
        );
        assert_eq!(cods.table("T").unwrap().rows(), 4);
        run(&mut cods, "exec MERGE TABLES S, T INTO R2");
        assert_eq!(cods.table("R2").unwrap().rows(), 7);
        assert!(run_command(&mut cods, "exec NONSENSE").is_err());
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut cods = shell();
        assert!(run_command(&mut cods, "display nope").is_err());
        assert!(run_command(&mut cods, "create").is_err());
        assert!(run_command(&mut cods, "frobnicate").is_err());
        // Empty lines and comments are no-ops.
        assert!(matches!(
            run_command(&mut cods, "").unwrap(),
            Outcome::Continue
        ));
        assert!(matches!(
            run_command(&mut cods, "quit").unwrap(),
            Outcome::Quit
        ));
    }

    #[test]
    fn run_command_goes_through_the_atomic_plan_path() {
        let dir = std::env::temp_dir().join("cods_cli_run_test");
        std::fs::create_dir_all(&dir).unwrap();

        // A valid script executes end to end with one atomic commit.
        let ok = dir.join("ok.smo");
        std::fs::write(
            &ok,
            "DECOMPOSE TABLE R INTO S (employee, skill), T (employee, address)\n\
             MERGE TABLES S, T INTO R2\n",
        )
        .unwrap();
        let mut cods = shell();
        run(&mut cods, "demo");
        let v0 = cods.catalog().version();
        run(&mut cods, &format!("run {}", ok.display()));
        assert!(cods.catalog().contains("R2"));
        assert_eq!(cods.catalog().version(), v0 + 1, "one atomic commit");

        // Regression: a script failing mid-way (the second statement's
        // output name collides with an existing table) must leave the
        // catalog exactly as it was — no partial mutation.
        let bad = dir.join("bad.smo");
        std::fs::write(
            &bad,
            "COPY TABLE R2 TO R3\nRENAME TABLE R3 TO S\nDROP TABLE R2\nDROP TABLE missing\n",
        )
        .unwrap();
        let names_before = cods.catalog().table_names();
        let v1 = cods.catalog().version();
        assert!(run_command(&mut cods, &format!("run {}", bad.display())).is_err());
        assert_eq!(cods.catalog().table_names(), names_before);
        assert_eq!(cods.catalog().version(), v1);

        std::fs::remove_file(&ok).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn plan_command_prints_dag_and_fusion() {
        let dir = std::env::temp_dir().join("cods_cli_plan_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("script.smo");
        std::fs::write(
            &file,
            "ADD COLUMN dept str DEFAULT eng TO R\nDROP COLUMN dept FROM R\n",
        )
        .unwrap();
        let mut cods = shell();
        run(&mut cods, "demo");
        // `plan` only validates and prints; nothing executes.
        run(&mut cods, &format!("plan {}", file.display()));
        assert_eq!(cods.table("R").unwrap().arity(), 3);
        assert!(cods.history().is_empty());
        let plan = cods
            .plan_script(&std::fs::read_to_string(&file).unwrap())
            .unwrap();
        assert!(plan.describe().contains("FUSED COLUMN PASS ON R"));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn history_groups_plan_records() {
        let mut cods = shell();
        run(&mut cods, "demo");
        let report = cods
            .plan_script("COPY TABLE R TO A\nCOPY TABLE R TO B")
            .unwrap()
            .execute()
            .unwrap();
        let id = report.records[0].plan_id.unwrap();
        assert!(report.records.iter().all(|r| r.plan_id == Some(id)));
        run(&mut cods, "drop A");
        let hist = cods.history();
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[0].plan_id, hist[1].plan_id);
        assert_ne!(hist[2].plan_id, hist[0].plan_id);
        // The grouped renderer must not panic on mixed histories.
        run(&mut cods, "history");
    }

    /// Serialises the tests that set or observe the process-wide buffer
    /// cache so a concurrently shrunk budget can't evict segments whose
    /// residency another test is asserting.
    static CACHE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn cache_command_reports_and_sets_the_budget() {
        let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut cods = shell();
        run(&mut cods, "demo");
        // `stats` reports residency: a freshly built table is fully
        // resident with nothing paged out.
        let out = render_stats("R", &cods.table("R").unwrap());
        assert!(
            out.contains("3 resident / 0 on-disk segments"),
            "stats: {out}"
        );
        // `cache <bytes>` sets the budget, with binary suffixes; `cache
        // unlimited` clears it.
        run(&mut cods, "cache 65536");
        assert_eq!(segment_cache().stats().budget, 65536);
        run(&mut cods, "cache 64k");
        assert_eq!(segment_cache().stats().budget, 65536);
        run(&mut cods, "cache 2m");
        assert_eq!(segment_cache().stats().budget, 2 << 20);
        run(&mut cods, "cache unlimited");
        assert_eq!(segment_cache().stats().budget, u64::MAX);
        // Telemetry renders budget, resident bytes, and counters.
        let out = render_cache();
        assert!(out.contains("budget=unlimited"), "cache: {out}");
        assert!(out.contains("resident="), "cache: {out}");
        assert!(out.contains("misses"), "cache: {out}");
        assert!(out.contains("evictions"), "cache: {out}");
        // Bad arguments are rejected.
        assert!(run_command(&mut cods, "cache nonsense").is_err());
        assert!(run_command(&mut cods, "cache 1 2").is_err());
        run(&mut cods, "cache"); // bare form prints, never errors
    }

    #[test]
    fn open_is_lazy_and_stats_show_residency() {
        let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("cods_cli_lazy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("lazy.catalog");
        let mut cods = shell();
        run(&mut cods, "demo");
        run(&mut cods, &format!("save {}", file.display()));
        let mut fresh = shell();
        run(&mut fresh, &format!("open {}", file.display()));
        // The reopened catalog is metadata-only until something reads it,
        // and `stats` itself must not fault anything in.
        let t = fresh.table("R").unwrap();
        let out = render_stats("R", &t);
        assert!(
            out.contains("0 resident / 3 on-disk segments"),
            "stats: {out}"
        );
        assert_eq!(t.residency_counts(), (0, 3), "stats faulted payloads in");
        // Reading the data faults it in; stats now reflect that.
        assert_eq!(t.rows(), 7);
        assert_eq!(t.to_rows().len(), 7);
        let out = render_stats("R", &t);
        assert!(
            out.contains("3 resident / 0 on-disk segments"),
            "stats: {out}"
        );
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn vacuum_command_compacts_and_stats_report_heap_occupancy() {
        let dir = std::env::temp_dir().join("cods_cli_vacuum_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("churn.catalog");
        std::fs::remove_file(&file).ok();
        let mut cods = shell();
        run(&mut cods, "demo");
        run(&mut cods, &format!("save {}", file.display()));

        // After the first save everything is live; `stats` reports the
        // backing file's heap occupancy.
        let out = render_stats("R", &cods.table("R").unwrap());
        assert!(out.contains("file "), "stats: {out}");
        assert!(out.contains("+ 0 dead"), "stats: {out}");

        // Churn one column: the other columns' extents stay reused, so the
        // saves take the append path and strand the recoded payloads.
        run(&mut cods, "recode R skill rle");
        run(&mut cods, &format!("save {}", file.display()));
        run(&mut cods, "recode R skill bitmap");
        run(&mut cods, &format!("save {}", file.display()));
        let churned = cods_storage::heap_stats(&file).unwrap();
        assert!(churned.dead_bytes > 0, "{churned:?}");
        let out = render_stats("R", &cods.table("R").unwrap());
        assert!(!out.contains("+ 0 dead"), "stats: {out}");

        // `vacuum <file>` compacts; the file reopens equal and fully live.
        run(&mut cods, &format!("vacuum {}", file.display()));
        let after = cods_storage::heap_stats(&file).unwrap();
        assert_eq!(after.dead_bytes, 0, "{after:?}");
        assert!(after.file_bytes < churned.file_bytes);
        let mut fresh = shell();
        run(&mut fresh, &format!("open {}", file.display()));
        assert_eq!(fresh.table("R").unwrap().rows(), 7);

        // Bad arguments are rejected.
        assert!(run_command(&mut cods, "vacuum").is_err());
        assert!(run_command(&mut cods, "vacuum /nonexistent/x.catalog").is_err());
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn save_and_open_round_trip() {
        let dir = std::env::temp_dir().join("cods_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("demo.catalog");
        let mut cods = shell();
        run(&mut cods, "demo");
        run(&mut cods, &format!("save {}", file.display()));
        let mut fresh = shell();
        run(&mut fresh, &format!("open {}", file.display()));
        assert!(fresh.catalog().contains("R"));
        assert_eq!(fresh.table("R").unwrap().rows(), 7);
        std::fs::remove_file(&file).ok();
    }
}

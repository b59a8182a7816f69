//! Checkable certificates: solvability verdicts as portable, independently
//! re-verifiable artifacts.
//!
//! A verdict alone ("solvable", "unsolvable") asks the client to trust the
//! whole analysis pipeline — the prefix-space expansion, the component
//! labeling, the chain search. A [`Certificate`] instead carries the
//! *evidence* behind the verdict in a form a skeptical client can re-check
//! in milliseconds, **without re-expanding the prefix space**:
//!
//! - [`Certificate::Solvable`] carries the synthesized strategy of the
//!   universal algorithm (Theorem 5.5): the decision depth and the full
//!   per-`(process, view)` decision table, plus one valent witness
//!   execution per input value. See [`crate::universal`] for what the
//!   table *is* in the paper's terms. The verifier replays each witness
//!   word through the adversary's admissibility predicate
//!   ([`MessageAdversary::admits_prefix`]), recomputes the views it
//!   induces in a fresh interner, and checks that every process decides
//!   the witness's valence by the stated depth — agreement, validity, and
//!   termination on the exported table.
//! - [`Certificate::Unsolvable`] carries the fair-execution witness: the
//!   broken ε-chain of [`ZeroChain`] — a sequence
//!   of ultimately periodic admissible runs with differing end valences,
//!   consecutive runs linked by a forever-silent process (the finite
//!   shadow of the fair/unfair limits of Definition 5.16 and the
//!   bivalence argument of §6.1; see [`crate::bivalence`]). The verifier
//!   re-checks admissibility of every lasso
//!   ([`MessageAdversary::admits_lasso`]) and the zero-contamination
//!   links, which refutes *every* algorithm at once.
//!
//! Views inside a certificate are identified by a structural digest, not
//! by [`ViewId`] — interner ids depend on the order shapes were interned
//! in, which an offline verifier cannot reproduce. The digest of an initial view hashes
//! `(process, input)`; the digest of a round view hashes the process, the
//! predecessor digest, and the sorted `(sender, digest)` pairs received.
//! Replaying a witness in a fresh [`ViewTable`] therefore reproduces the
//! digests exactly, and the decision table keys on them.
//!
//! The JSON encoding (see `docs/certificates.md` for the field-by-field
//! schema) is stable and versioned by [`CERT_VERSION`]: a verifier must
//! reject any other version string rather than guess at field semantics.

use std::collections::HashMap;
use std::fmt;

use adversary::MessageAdversary;
use consensus_obs::metrics::registry;
use consensus_obs::trace::tracer;
use dyngraph::{Digraph, GraphSeq, Lasso, Pid};
use json::Value as Json;
use ptgraph::{InfiniteRun, PrefixRun, Value, ViewId, ViewTable};

use crate::fair::ZeroChain;
use crate::solvability::SolvableCert;
use crate::space::PrefixSpace;

/// The certificate format version. Bump on any change to the JSON schema;
/// verifiers reject every version they were not built for.
pub const CERT_VERSION: &str = "consensus-cert/v1";

/// Graph codes use [`Digraph::code`], which packs the adjacency matrix
/// into a `u64` — certificates are therefore limited to `n ≤ 8` processes
/// (far above the catalog's sizes).
pub const MAX_CERT_N: usize = 8;

/// One decision-table entry: process `process`, holding the view with
/// structural digest `view`, decides `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionEntry {
    /// The deciding process.
    pub process: Pid,
    /// The structural digest of the view (see [`view_digest`]).
    pub view: u64,
    /// The decided value.
    pub value: Value,
}

/// One valent witness execution of a solvable certificate: on the
/// all-`value` input assignment, the `word` must be admissible and every
/// process must decide `value` by the certificate's depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessRun {
    /// The value all processes start with (and must decide).
    pub value: Value,
    /// The input assignment (all entries equal `value`).
    pub inputs: Vec<Value>,
    /// The graph word, one [`Digraph::code`] per round.
    pub word: Vec<u64>,
}

/// The strategy extracted from a [`Verdict::Solvable`](crate::solvability::Verdict)
/// outcome: the universal algorithm's decision table plus valent witnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolvableCertificate {
    /// The adversary label (catalog name or canonical spec term).
    pub adversary: String,
    /// The adversary's structural fingerprint
    /// ([`MessageAdversary::fingerprint`]).
    pub fingerprint: u64,
    /// Number of processes.
    pub n: usize,
    /// The input domain the strategy was synthesized over.
    pub domain: Vec<Value>,
    /// The separating depth: every admissible run decides by this round.
    pub depth: usize,
    /// The decision table, sorted by `(process, view)`.
    pub decisions: Vec<DecisionEntry>,
    /// One witness execution per domain value, in domain order.
    pub witnesses: Vec<WitnessRun>,
}

/// One ultimately periodic run of an unsolvable certificate's chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertRun {
    /// The input assignment.
    pub inputs: Vec<Value>,
    /// The lasso's finite prefix, one [`Digraph::code`] per round.
    pub prefix: Vec<u64>,
    /// The lasso's repeated cycle (nonempty), one code per round.
    pub cycle: Vec<u64>,
}

/// The fair-execution witness extracted from a
/// [`Verdict::Unsolvable`](crate::solvability::Verdict) outcome: a
/// serialized [`ZeroChain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsolvableCertificate {
    /// The adversary label (catalog name or canonical spec term).
    pub adversary: String,
    /// The adversary's structural fingerprint.
    pub fingerprint: u64,
    /// Number of processes.
    pub n: usize,
    /// The input domain of the analysis.
    pub domain: Vec<Value>,
    /// The two distinct valences the chain connects.
    pub valences: (Value, Value),
    /// The chain's runs; the first is `valences.0`-valent, the last
    /// `valences.1`-valent.
    pub runs: Vec<CertRun>,
    /// `links[i]` is the process silent between `runs[i]` and `runs[i+1]`.
    pub links: Vec<Pid>,
}

/// A checkable certificate: the evidence behind a definitive verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// Consensus is solvable; carries the strategy (see module docs).
    Solvable(SolvableCertificate),
    /// Consensus is unsolvable; carries the broken ε-chain.
    Unsolvable(UnsolvableCertificate),
}

/// Why a certificate was rejected (or could not be decoded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// The JSON payload does not decode to a certificate.
    Encoding {
        /// What was malformed.
        reason: String,
    },
    /// The version string is not [`CERT_VERSION`].
    Version {
        /// The version string found in the payload.
        found: String,
    },
    /// The adversary label could not be resolved/built.
    Adversary {
        /// The builder's error.
        reason: String,
    },
    /// The certificate's fingerprint does not match the adversary it is
    /// being verified against — a stale or mismatched artifact.
    FingerprintMismatch {
        /// The verifying adversary's fingerprint.
        expected: u64,
        /// The certificate's fingerprint.
        found: u64,
    },
    /// The certificate's `n` does not match the adversary's.
    ProcessCountMismatch {
        /// The verifying adversary's process count.
        expected: usize,
        /// The certificate's process count.
        found: usize,
    },
    /// The decision table is structurally invalid (unsorted, duplicate
    /// keys, out-of-range process, value outside the domain).
    MalformedTable {
        /// What was malformed.
        reason: String,
    },
    /// A witness (or chain run) is structurally invalid.
    MalformedWitness {
        /// What was malformed.
        reason: String,
    },
    /// A witness word's length disagrees with the stated depth — a
    /// truncated witness or a tampered depth field.
    DepthMismatch {
        /// The certificate's stated depth.
        depth: usize,
        /// The witness word's actual round count.
        witness_rounds: usize,
    },
    /// A witness word is not admissible under the adversary.
    InadmissibleWitness {
        /// The valence of the rejected witness.
        value: Value,
    },
    /// Replaying a witness, a process's earliest table decision disagrees
    /// with the witness's valence.
    WrongDecision {
        /// The process whose decision disagrees.
        process: Pid,
        /// The witness's valence (the required decision).
        expected: Value,
        /// The decision the table actually yields.
        found: Value,
    },
    /// Replaying a witness, a process reaches the stated depth without any
    /// decision — the strategy does not terminate as claimed.
    Undecided {
        /// The undecided process.
        process: Pid,
        /// The valence of the witness being replayed.
        value: Value,
    },
    /// The domain is too large for replay: one witness's views, up to
    /// `|domain|^n` ids for each of its `(depth + 1) · n` shapes, would not
    /// fit the view id space.
    DomainTooLarge {
        /// Distinct values in the domain.
        size: usize,
        /// The certificate's process count.
        n: usize,
        /// The certificate's stated depth.
        depth: usize,
    },
    /// The chain's end runs do not carry the claimed distinct valences.
    ValenceMismatch {
        /// What was wrong.
        reason: String,
    },
    /// The chain is structurally sound but fails re-verification against
    /// the adversary (inadmissible lasso or a contaminated link).
    ChainRejected,
}

impl CertError {
    /// A stable machine-readable tag for the error class.
    pub fn kind(&self) -> &'static str {
        match self {
            CertError::Encoding { .. } => "encoding",
            CertError::Version { .. } => "version",
            CertError::Adversary { .. } => "adversary",
            CertError::FingerprintMismatch { .. } => "fingerprint-mismatch",
            CertError::ProcessCountMismatch { .. } => "process-count-mismatch",
            CertError::MalformedTable { .. } => "malformed-table",
            CertError::MalformedWitness { .. } => "malformed-witness",
            CertError::DepthMismatch { .. } => "depth-mismatch",
            CertError::InadmissibleWitness { .. } => "inadmissible-witness",
            CertError::WrongDecision { .. } => "wrong-decision",
            CertError::Undecided { .. } => "undecided",
            CertError::DomainTooLarge { .. } => "domain-too-large",
            CertError::ValenceMismatch { .. } => "valence-mismatch",
            CertError::ChainRejected => "chain-rejected",
        }
    }
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::Encoding { reason } => write!(f, "malformed certificate: {reason}"),
            CertError::Version { found } => {
                write!(f, "unsupported certificate version {found:?} (expected {CERT_VERSION:?})")
            }
            CertError::Adversary { reason } => {
                write!(f, "cannot build the certificate's adversary: {reason}")
            }
            CertError::FingerprintMismatch { expected, found } => write!(
                f,
                "adversary fingerprint mismatch: certificate has {found:016x}, \
                 adversary is {expected:016x}"
            ),
            CertError::ProcessCountMismatch { expected, found } => {
                write!(
                    f,
                    "process count mismatch: certificate has n={found}, adversary n={expected}"
                )
            }
            CertError::MalformedTable { reason } => write!(f, "malformed decision table: {reason}"),
            CertError::MalformedWitness { reason } => write!(f, "malformed witness: {reason}"),
            CertError::DepthMismatch { depth, witness_rounds } => write!(
                f,
                "witness word has {witness_rounds} round(s) but the certificate \
                 states depth {depth}"
            ),
            CertError::InadmissibleWitness { value } => {
                write!(f, "the {value}-valent witness word is not admissible under the adversary")
            }
            CertError::WrongDecision { process, expected, found } => write!(
                f,
                "process {process} decides {found} on the {expected}-valent witness \
                 (must decide {expected})"
            ),
            CertError::Undecided { process, value } => write!(
                f,
                "process {process} is undecided at the stated depth on the \
                 {value}-valent witness"
            ),
            CertError::DomainTooLarge { size, n, depth } => write!(
                f,
                "a domain of {size} values over n = {n} processes at depth {depth} \
                 exceeds the view id space"
            ),
            CertError::ValenceMismatch { reason } => write!(f, "valence mismatch: {reason}"),
            CertError::ChainRejected => write!(
                f,
                "the zero-chain fails re-verification (inadmissible lasso or \
                 contaminated link)"
            ),
        }
    }
}

impl std::error::Error for CertError {}

// ---------------------------------------------------------------------------
// Structural view digests
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// The interner-independent structural digest of a view.
///
/// Initial views hash `(process, input)`; round views hash the process,
/// the predecessor's digest, and the received `(sender, digest)` pairs in
/// sender order. Two views get equal digests iff they are structurally
/// equal, regardless of the interning order of the [`ViewTable`]s holding
/// them — which is what lets an offline verifier recompute them from
/// scratch.
pub fn view_digest(table: &ViewTable, id: ViewId, memo: &mut HashMap<ViewId, u64>) -> u64 {
    if let Some(&d) = memo.get(&id) {
        return d;
    }
    let data = table.data(id);
    let digest = match table.prev(id) {
        None => fnv(&[0, data.process as u64, u64::from(data.own_input())]),
        Some(prev) => {
            let mut words = vec![1, data.process as u64, view_digest(table, prev, memo)];
            let mut received: Vec<(Pid, u64)> =
                table.received(id).map(|(q, v)| (q, view_digest(table, v, memo))).collect();
            received.sort_unstable();
            for (q, d) in received {
                words.push(q as u64);
                words.push(d);
            }
            fnv(&words)
        }
    };
    memo.insert(id, digest);
    digest
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

impl Certificate {
    /// Extract a solvable certificate from a checker outcome.
    ///
    /// `space` must be the prefix space `cert` was certified on (the
    /// separating depth's space — a cache hit, never a fresh expansion).
    /// Returns `None` when the space exceeds [`MAX_CERT_N`] processes or a
    /// domain value has no valent run to witness (neither occurs for the
    /// built-in catalog).
    pub fn from_solvable(
        cert: &SolvableCert,
        space: &PrefixSpace,
        adversary: &str,
        fingerprint: u64,
    ) -> Option<Certificate> {
        let _span = tracer().span("cert.extract").with_attr("verdict", "solvable");
        registry().counter("cert.extract").inc();
        let n = space.table().n();
        if n > MAX_CERT_N {
            return None;
        }
        let mut memo = HashMap::new();
        let decisions = cert.algorithm.with_view_table(|table| {
            let mut entries: Vec<DecisionEntry> = cert
                .algorithm
                .decision_table()
                .into_iter()
                .map(|(process, view, value)| DecisionEntry {
                    process,
                    view: view_digest(table, view, &mut memo),
                    value,
                })
                .collect();
            entries.sort_unstable_by_key(|e| (e.process, e.view));
            entries
        });
        let mut witnesses = Vec::with_capacity(space.values().len());
        for &value in space.values() {
            let run = space.runs().iter().find(|r| r.is_valent(value))?;
            witnesses.push(WitnessRun {
                value,
                inputs: run.inputs().to_vec(),
                word: (1..=run.rounds()).map(|t| run.seq().graph(t).code()).collect(),
            });
        }
        Some(Certificate::Solvable(SolvableCertificate {
            adversary: adversary.to_string(),
            fingerprint,
            n,
            domain: space.values().to_vec(),
            depth: cert.depth,
            decisions,
            witnesses,
        }))
    }

    /// Extract an unsolvable certificate from a [`ZeroChain`].
    ///
    /// Returns `None` when the chain exceeds [`MAX_CERT_N`] processes.
    pub fn from_unsolvable(
        chain: &ZeroChain,
        adversary: &str,
        fingerprint: u64,
        n: usize,
        domain: &[Value],
    ) -> Option<Certificate> {
        let _span = tracer().span("cert.extract").with_attr("verdict", "unsolvable");
        registry().counter("cert.extract").inc();
        if n > MAX_CERT_N {
            return None;
        }
        let runs = chain
            .runs
            .iter()
            .map(|run| {
                let lasso = run.lasso();
                CertRun {
                    inputs: run.inputs().to_vec(),
                    prefix: (1..=lasso.prefix_len()).map(|t| lasso.graph_at(t).code()).collect(),
                    cycle: (lasso.prefix_len() + 1..=lasso.prefix_len() + lasso.cycle_len())
                        .map(|t| lasso.graph_at(t).code())
                        .collect(),
                }
            })
            .collect();
        Some(Certificate::Unsolvable(UnsolvableCertificate {
            adversary: adversary.to_string(),
            fingerprint,
            n,
            domain: domain.to_vec(),
            valences: chain.valences,
            runs,
            links: chain.links.clone(),
        }))
    }

    /// The adversary label the certificate was issued for.
    pub fn adversary(&self) -> &str {
        match self {
            Certificate::Solvable(c) => &c.adversary,
            Certificate::Unsolvable(c) => &c.adversary,
        }
    }

    /// The verdict name: `"solvable"` or `"unsolvable"`.
    pub fn verdict(&self) -> &'static str {
        match self {
            Certificate::Solvable(_) => "solvable",
            Certificate::Unsolvable(_) => "unsolvable",
        }
    }
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

/// Re-check `cert` against `ma` without expanding any prefix space.
///
/// Solvable certificates: fingerprint and process count must match; the
/// decision table must be sorted, duplicate-free, and range-valid; every
/// witness word must be admissible ([`MessageAdversary::admits_prefix`]),
/// exactly `depth` rounds long, and — replayed through a fresh view
/// interner — must have every process decide the witness's valence by
/// `depth` under the exported table.
///
/// Unsolvable certificates: the chain must be structurally sound (≥ 2
/// runs, one link per adjacent pair, distinct end valences carried by the
/// end runs), and the reconstructed [`ZeroChain`] must pass
/// [`ZeroChain::verify`] — admissible lassos, zero contamination across
/// every link.
///
/// The work is `O(n² · depth)` per witness plus the adversary's
/// admissibility predicates: milliseconds, versus the exponential
/// prefix-space expansion the original verdict required.
pub fn verify(cert: &Certificate, ma: &dyn MessageAdversary) -> Result<(), CertError> {
    let mut span = tracer().span("cert.verify").with_attr("verdict", cert.verdict());
    registry().counter("cert.verify").inc();
    let result = match cert {
        Certificate::Solvable(c) => verify_solvable(c, ma),
        Certificate::Unsolvable(c) => verify_unsolvable(c, ma),
    };
    span.set_attr("ok", result.is_ok());
    if result.is_err() {
        registry().counter("cert.verify.rejected").inc();
    }
    result
}

fn check_identity(ma: &dyn MessageAdversary, n: usize, fingerprint: u64) -> Result<(), CertError> {
    if ma.n() != n {
        return Err(CertError::ProcessCountMismatch { expected: ma.n(), found: n });
    }
    if ma.fingerprint() != fingerprint {
        return Err(CertError::FingerprintMismatch {
            expected: ma.fingerprint(),
            found: fingerprint,
        });
    }
    Ok(())
}

/// Decode a graph word, rejecting codes with bits outside the `n × n`
/// adjacency matrix (they would silently round-trip to a different word).
fn decode_word(n: usize, codes: &[u64], what: &str) -> Result<Vec<Digraph>, CertError> {
    if n == 0 || n > MAX_CERT_N {
        return Err(CertError::MalformedWitness { reason: format!("n = {n} out of range") });
    }
    let mask = if n * n == 64 {
        u64::MAX
    } else {
        (1u64 << (n * n)) - 1
    };
    codes
        .iter()
        .map(|&code| {
            if code & !mask != 0 {
                return Err(CertError::MalformedWitness {
                    reason: format!("{what}: graph code {code:#x} has bits outside n = {n}"),
                });
            }
            Ok(Digraph::from_code(n, code))
        })
        .collect()
}

fn verify_solvable(cert: &SolvableCertificate, ma: &dyn MessageAdversary) -> Result<(), CertError> {
    check_identity(ma, cert.n, cert.fingerprint)?;
    if cert.domain.is_empty() {
        return Err(CertError::MalformedTable { reason: "empty domain".into() });
    }
    let mut domain = cert.domain.clone();
    domain.sort_unstable();
    domain.dedup();
    // Replay interns at most (depth + 1) · n shapes per witness, each with
    // up to |domain|^n view ids; refuse what the id space cannot hold
    // before anything is interned.
    let ids = (domain.len() as u64).checked_pow(cert.n as u32).and_then(|per_shape| {
        let shapes = cert.depth.checked_add(1)?.checked_mul(cert.n)?;
        per_shape.checked_mul(u64::try_from(shapes).ok()?)
    });
    if ids.is_none() {
        return Err(CertError::DomainTooLarge { size: domain.len(), n: cert.n, depth: cert.depth });
    }
    // Table sanity: sorted, unique, range-valid. Entries off the witness
    // paths are unexercised but must still be well-formed.
    for pair in cert.decisions.windows(2) {
        if (pair[0].process, pair[0].view) >= (pair[1].process, pair[1].view) {
            return Err(CertError::MalformedTable {
                reason: "entries not strictly sorted by (process, view)".into(),
            });
        }
    }
    for entry in &cert.decisions {
        if entry.process >= cert.n {
            return Err(CertError::MalformedTable {
                reason: format!("process {} out of range (n = {})", entry.process, cert.n),
            });
        }
        if !cert.domain.contains(&entry.value) {
            return Err(CertError::MalformedTable {
                reason: format!("decision value {} outside the domain", entry.value),
            });
        }
    }
    let table: HashMap<(Pid, u64), Value> =
        cert.decisions.iter().map(|e| ((e.process, e.view), e.value)).collect();
    // Exactly one witness per domain value.
    let mut values: Vec<Value> = cert.witnesses.iter().map(|w| w.value).collect();
    values.sort_unstable();
    values.dedup();
    if values != domain {
        return Err(CertError::MalformedWitness {
            reason: "witness values do not cover the domain exactly once".into(),
        });
    }
    for witness in &cert.witnesses {
        verify_witness(cert, &domain, witness, &table, ma)?;
    }
    Ok(())
}

fn verify_witness(
    cert: &SolvableCertificate,
    domain: &[Value],
    witness: &WitnessRun,
    table: &HashMap<(Pid, u64), Value>,
    ma: &dyn MessageAdversary,
) -> Result<(), CertError> {
    let v = witness.value;
    if witness.inputs.len() != cert.n || witness.inputs.iter().any(|&x| x != v) {
        return Err(CertError::MalformedWitness {
            reason: format!("the {v}-valent witness's inputs are not all {v} over n = {}", cert.n),
        });
    }
    if witness.word.len() != cert.depth {
        return Err(CertError::DepthMismatch {
            depth: cert.depth,
            witness_rounds: witness.word.len(),
        });
    }
    let graphs = decode_word(cert.n, &witness.word, "witness word")?;
    let seq = GraphSeq::from_graphs(graphs);
    if !ma.admits_prefix(&seq) {
        return Err(CertError::InadmissibleWitness { value: v });
    }
    // Replay in a fresh interner over the deduplicated domain: digests are
    // structural, so they coincide with the extraction-time digests
    // without sharing any table state.
    let mut fresh = ViewTable::new(cert.n, domain);
    let run = PrefixRun::compute(&witness.inputs, seq, &mut fresh);
    let mut memo = HashMap::new();
    for p in 0..cert.n {
        let mut decided = None;
        for t in 0..=cert.depth {
            let digest = view_digest(&fresh, run.view(p, t), &mut memo);
            if let Some(&value) = table.get(&(p, digest)) {
                decided = Some(value);
                break;
            }
        }
        match decided {
            Some(value) if value == v => {}
            Some(value) => {
                return Err(CertError::WrongDecision { process: p, expected: v, found: value })
            }
            None => return Err(CertError::Undecided { process: p, value: v }),
        }
    }
    Ok(())
}

fn verify_unsolvable(
    cert: &UnsolvableCertificate,
    ma: &dyn MessageAdversary,
) -> Result<(), CertError> {
    check_identity(ma, cert.n, cert.fingerprint)?;
    let (v, w) = cert.valences;
    if v == w {
        return Err(CertError::ValenceMismatch { reason: format!("valences are both {v}") });
    }
    if cert.runs.len() < 2 {
        return Err(CertError::MalformedWitness {
            reason: format!("a chain needs at least 2 runs, found {}", cert.runs.len()),
        });
    }
    if cert.links.len() + 1 != cert.runs.len() {
        return Err(CertError::MalformedWitness {
            reason: format!(
                "{} run(s) need {} link(s), found {}",
                cert.runs.len(),
                cert.runs.len() - 1,
                cert.links.len()
            ),
        });
    }
    if let Some(&p) = cert.links.iter().find(|&&p| p >= cert.n) {
        return Err(CertError::MalformedWitness {
            reason: format!("link process {p} out of range (n = {})", cert.n),
        });
    }
    let mut runs = Vec::with_capacity(cert.runs.len());
    for (i, run) in cert.runs.iter().enumerate() {
        if run.inputs.len() != cert.n {
            return Err(CertError::MalformedWitness {
                reason: format!("run {i}: {} input(s) for n = {}", run.inputs.len(), cert.n),
            });
        }
        if run.cycle.is_empty() {
            return Err(CertError::MalformedWitness {
                reason: format!("run {i}: empty lasso cycle"),
            });
        }
        let prefix = GraphSeq::from_graphs(decode_word(cert.n, &run.prefix, "lasso prefix")?);
        let cycle = GraphSeq::from_graphs(decode_word(cert.n, &run.cycle, "lasso cycle")?);
        runs.push(InfiniteRun::new(run.inputs.clone(), Lasso::new(prefix, cycle)));
    }
    let first_valent = runs.first().is_some_and(|r| r.is_valent(v));
    let last_valent = runs.last().is_some_and(|r| r.is_valent(w));
    if !first_valent || !last_valent {
        return Err(CertError::ValenceMismatch {
            reason: format!("end runs are not ({v}, {w})-valent as claimed"),
        });
    }
    let chain = ZeroChain { runs, links: cert.links.clone(), valences: cert.valences };
    if !chain.verify(ma) {
        return Err(CertError::ChainRejected);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------------

fn hex16(fp: u64) -> Json {
    Json::Str(format!("{fp:016x}"))
}

fn parse_hex16(value: &Json, what: &str) -> Result<u64, CertError> {
    let bad = || CertError::Encoding { reason: format!("{what} must be a 16-hex-digit string") };
    let s = value.as_str().ok_or_else(bad)?;
    if s.len() != 16 {
        return Err(bad());
    }
    u64::from_str_radix(s, 16).map_err(|_| bad())
}

fn values_arr(values: &[Value]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Int(i64::from(v))).collect())
}

fn codes_arr(codes: &[u64]) -> Json {
    Json::Arr(codes.iter().map(|&c| Json::Int(c as i64)).collect())
}

fn parse_values(value: &Json, what: &str) -> Result<Vec<Value>, CertError> {
    let bad = |detail: &str| CertError::Encoding { reason: format!("{what}: {detail}") };
    let Json::Arr(items) = value else {
        return Err(bad("expected an array"));
    };
    items
        .iter()
        .map(|item| {
            item.as_i64()
                .and_then(|i| Value::try_from(i).ok())
                .ok_or_else(|| bad("expected non-negative integers"))
        })
        .collect()
}

fn parse_codes(value: &Json, what: &str) -> Result<Vec<u64>, CertError> {
    let bad = |detail: &str| CertError::Encoding { reason: format!("{what}: {detail}") };
    let Json::Arr(items) = value else {
        return Err(bad("expected an array"));
    };
    items
        .iter()
        .map(|item| {
            item.as_i64()
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| bad("expected non-negative graph codes"))
        })
        .collect()
}

fn get<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, CertError> {
    obj.get(key)
        .ok_or_else(|| CertError::Encoding { reason: format!("missing field {key:?}") })
}

fn get_str(obj: &Json, key: &str) -> Result<String, CertError> {
    get(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| CertError::Encoding { reason: format!("field {key:?} must be a string") })
}

fn get_usize(obj: &Json, key: &str) -> Result<usize, CertError> {
    obj.get_usize(key).ok_or_else(|| CertError::Encoding {
        reason: format!("field {key:?} must be a non-negative integer"),
    })
}

impl Certificate {
    /// The stable JSON encoding; see `docs/certificates.md` for the schema.
    pub fn to_json(&self) -> Json {
        match self {
            Certificate::Solvable(c) => {
                let decisions = c
                    .decisions
                    .iter()
                    .map(|e| {
                        Json::Obj(vec![
                            ("process".into(), Json::Int(e.process as i64)),
                            ("view".into(), hex16(e.view)),
                            ("value".into(), Json::Int(i64::from(e.value))),
                        ])
                    })
                    .collect();
                let witnesses = c
                    .witnesses
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("value".into(), Json::Int(i64::from(w.value))),
                            ("inputs".into(), values_arr(&w.inputs)),
                            ("word".into(), codes_arr(&w.word)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("certificate".into(), Json::Str(CERT_VERSION.into())),
                    ("verdict".into(), Json::Str("solvable".into())),
                    ("adversary".into(), Json::Str(c.adversary.clone())),
                    ("fingerprint".into(), hex16(c.fingerprint)),
                    ("n".into(), Json::Int(c.n as i64)),
                    ("domain".into(), values_arr(&c.domain)),
                    ("depth".into(), Json::Int(c.depth as i64)),
                    ("decisions".into(), Json::Arr(decisions)),
                    ("witnesses".into(), Json::Arr(witnesses)),
                ])
            }
            Certificate::Unsolvable(c) => {
                let runs = c
                    .runs
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("inputs".into(), values_arr(&r.inputs)),
                            ("prefix".into(), codes_arr(&r.prefix)),
                            ("cycle".into(), codes_arr(&r.cycle)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("certificate".into(), Json::Str(CERT_VERSION.into())),
                    ("verdict".into(), Json::Str("unsolvable".into())),
                    ("adversary".into(), Json::Str(c.adversary.clone())),
                    ("fingerprint".into(), hex16(c.fingerprint)),
                    ("n".into(), Json::Int(c.n as i64)),
                    ("domain".into(), values_arr(&c.domain)),
                    (
                        "valences".into(),
                        Json::Arr(vec![
                            Json::Int(i64::from(c.valences.0)),
                            Json::Int(i64::from(c.valences.1)),
                        ]),
                    ),
                    ("runs".into(), Json::Arr(runs)),
                    (
                        "links".into(),
                        Json::Arr(c.links.iter().map(|&p| Json::Int(p as i64)).collect()),
                    ),
                ])
            }
        }
    }

    /// Decode a certificate, rejecting unknown versions and malformed
    /// payloads with typed [`CertError`]s.
    pub fn from_json(value: &Json) -> Result<Certificate, CertError> {
        let version = get_str(value, "certificate")?;
        if version != CERT_VERSION {
            return Err(CertError::Version { found: version });
        }
        let verdict = get_str(value, "verdict")?;
        let adversary = get_str(value, "adversary")?;
        let fingerprint = parse_hex16(get(value, "fingerprint")?, "fingerprint")?;
        let n = get_usize(value, "n")?;
        let domain = parse_values(get(value, "domain")?, "domain")?;
        match verdict.as_str() {
            "solvable" => {
                let depth = get_usize(value, "depth")?;
                let Json::Arr(entries) = get(value, "decisions")? else {
                    return Err(CertError::Encoding {
                        reason: "field \"decisions\" must be an array".into(),
                    });
                };
                let mut decisions = Vec::with_capacity(entries.len());
                for entry in entries {
                    decisions.push(DecisionEntry {
                        process: get_usize(entry, "process")?,
                        view: parse_hex16(get(entry, "view")?, "view")?,
                        value: get_usize(entry, "value")? as Value,
                    });
                }
                let Json::Arr(items) = get(value, "witnesses")? else {
                    return Err(CertError::Encoding {
                        reason: "field \"witnesses\" must be an array".into(),
                    });
                };
                let mut witnesses = Vec::with_capacity(items.len());
                for item in items {
                    witnesses.push(WitnessRun {
                        value: get_usize(item, "value")? as Value,
                        inputs: parse_values(get(item, "inputs")?, "inputs")?,
                        word: parse_codes(get(item, "word")?, "word")?,
                    });
                }
                Ok(Certificate::Solvable(SolvableCertificate {
                    adversary,
                    fingerprint,
                    n,
                    domain,
                    depth,
                    decisions,
                    witnesses,
                }))
            }
            "unsolvable" => {
                let valences = parse_values(get(value, "valences")?, "valences")?;
                let [v, w] = valences[..] else {
                    return Err(CertError::Encoding {
                        reason: "field \"valences\" must hold exactly 2 values".into(),
                    });
                };
                let Json::Arr(items) = get(value, "runs")? else {
                    return Err(CertError::Encoding {
                        reason: "field \"runs\" must be an array".into(),
                    });
                };
                let mut runs = Vec::with_capacity(items.len());
                for item in items {
                    runs.push(CertRun {
                        inputs: parse_values(get(item, "inputs")?, "inputs")?,
                        prefix: parse_codes(get(item, "prefix")?, "prefix")?,
                        cycle: parse_codes(get(item, "cycle")?, "cycle")?,
                    });
                }
                let links = parse_values(get(value, "links")?, "links")?
                    .into_iter()
                    .map(|p| p as usize)
                    .collect();
                Ok(Certificate::Unsolvable(UnsolvableCertificate {
                    adversary,
                    fingerprint,
                    n,
                    domain,
                    valences: (v, w),
                    runs,
                    links,
                }))
            }
            other => Err(CertError::Encoding { reason: format!("unknown verdict {other:?}") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AnalysisConfig, ExpandConfig};
    use crate::solvability::{SolvabilityChecker, Verdict};
    use adversary::{GeneralMA, MessageAdversary};
    use dyngraph::generators;

    fn solvable_cert() -> (Certificate, GeneralMA) {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let fp = ma.fingerprint();
        let checker =
            SolvabilityChecker::new(GeneralMA::oblivious(generators::lossy_link_reduced()))
                .max_depth(2);
        let Verdict::Solvable(cert) = checker.check() else {
            panic!("solvable")
        };
        let space =
            PrefixSpace::expand(&ma, &[0, 1], cert.depth, &ExpandConfig::default()).unwrap();
        let cert = Certificate::from_solvable(&cert, &space, "reduced", fp).unwrap();
        (cert, ma)
    }

    fn message_loss_2_2() -> adversary::DynMA {
        adversary::catalog::by_name("message-loss-2-2").unwrap().build()
    }

    fn unsolvable_cert() -> (Certificate, adversary::DynMA) {
        let ma = message_loss_2_2();
        let fp = ma.fingerprint();
        let checker = SolvabilityChecker::with_config(
            message_loss_2_2(),
            AnalysisConfig::default(),
            ExpandConfig::default(),
        )
        .max_depth(2);
        let Verdict::Unsolvable(crate::solvability::UnsolvableCert::ZeroChain(chain)) =
            checker.check()
        else {
            panic!("unsolvable")
        };
        let cert =
            Certificate::from_unsolvable(&chain, "message-loss-2-2", fp, ma.n(), &[0, 1]).unwrap();
        (cert, ma)
    }

    #[test]
    fn solvable_certificate_roundtrips_and_verifies() {
        let (cert, ma) = solvable_cert();
        verify(&cert, &ma).unwrap();
        let decoded = Certificate::from_json(&cert.to_json()).unwrap();
        assert_eq!(decoded, cert);
        verify(&decoded, &ma).unwrap();
    }

    #[test]
    fn unsolvable_certificate_roundtrips_and_verifies() {
        let (cert, ma) = unsolvable_cert();
        verify(&cert, ma.as_ref()).unwrap();
        let decoded = Certificate::from_json(&cert.to_json()).unwrap();
        assert_eq!(decoded, cert);
        verify(&decoded, ma.as_ref()).unwrap();
    }

    #[test]
    fn digests_are_interning_order_independent() {
        // The same structural view interned in two different orders gets
        // the same digest.
        let seq = GraphSeq::parse2("-> <-").unwrap();
        let mut a = ViewTable::new(2, &[0, 1]);
        let run_a = PrefixRun::compute([0, 1], seq.clone(), &mut a);
        // A wider domain and an unrelated run interned first skew b's ids.
        let mut b = ViewTable::new(2, &[0, 1, 2]);
        PrefixRun::compute([1, 0], GraphSeq::parse2("<- ->").unwrap(), &mut b);
        let run_b = PrefixRun::compute([0, 1], seq, &mut b);
        let (mut ma, mut mb) = (HashMap::new(), HashMap::new());
        for p in 0..2 {
            for t in 0..=2 {
                assert_eq!(
                    view_digest(&a, run_a.view(p, t), &mut ma),
                    view_digest(&b, run_b.view(p, t), &mut mb),
                    "digest differs at ({p}, {t})"
                );
            }
        }
    }

    #[test]
    fn stale_fingerprint_is_rejected() {
        let (cert, ma) = solvable_cert();
        let Certificate::Solvable(mut c) = cert else {
            unreachable!()
        };
        c.fingerprint ^= 1;
        let err = verify(&Certificate::Solvable(c), &ma).unwrap_err();
        assert!(matches!(err, CertError::FingerprintMismatch { .. }), "{err}");
    }

    #[test]
    fn oversized_domain_is_a_typed_error() {
        // Over n = 8 processes, 256 values give one fully-heard shape 2^64
        // view ids, more than the id space holds: the domain, parsed from
        // untrusted JSON, must be refused before replay interns anything.
        let ma = GeneralMA::oblivious(generators::all_out_stars(8));
        let (cert, _) = solvable_cert();
        let Certificate::Solvable(mut c) = cert else {
            unreachable!()
        };
        (c.n, c.fingerprint) = (8, ma.fingerprint());
        let tampered = |c: &SolvableCertificate, size: Value| {
            let mut c = c.clone();
            c.domain = (0..size).collect();
            Certificate::from_json(&Certificate::Solvable(c).to_json()).unwrap()
        };
        let err = verify(&tampered(&c, 256), &ma).unwrap_err();
        assert!(matches!(err, CertError::DomainTooLarge { size: 256, n: 8, .. }), "{err}");
        assert_eq!(err.kind(), "domain-too-large");
        // A domain the id space holds gets as far as the witness check.
        let err = verify(&tampered(&c, 16), &ma).unwrap_err();
        assert_eq!(err.kind(), "malformed-witness", "{err}");
    }

    #[test]
    fn truncated_witness_and_wrong_depth_are_rejected() {
        let (cert, ma) = solvable_cert();
        let Certificate::Solvable(c) = cert else {
            unreachable!()
        };
        let mut truncated = c.clone();
        truncated.witnesses[0].word.pop();
        let err = verify(&Certificate::Solvable(truncated), &ma).unwrap_err();
        assert!(matches!(err, CertError::DepthMismatch { .. }), "{err}");
        let mut deeper = c;
        deeper.depth += 1;
        let err = verify(&Certificate::Solvable(deeper), &ma).unwrap_err();
        assert!(matches!(err, CertError::DepthMismatch { .. }), "{err}");
    }

    #[test]
    fn flipped_decision_is_rejected() {
        let (cert, ma) = solvable_cert();
        let Certificate::Solvable(c) = cert else {
            unreachable!()
        };
        // Flip every table entry's value: whichever entries the witness
        // replay hits now disagree with the witness valence.
        let mut flipped = c;
        for entry in &mut flipped.decisions {
            entry.value = 1 - entry.value;
        }
        let err = verify(&Certificate::Solvable(flipped), &ma).unwrap_err();
        assert!(matches!(err, CertError::WrongDecision { .. }), "{err}");
    }

    #[test]
    fn truncated_chain_is_rejected() {
        let (cert, ma) = unsolvable_cert();
        let Certificate::Unsolvable(c) = cert else {
            unreachable!()
        };
        let mut truncated = c.clone();
        truncated.runs.pop();
        let err = verify(&Certificate::Unsolvable(truncated), ma.as_ref()).unwrap_err();
        assert!(
            matches!(err, CertError::MalformedWitness { .. } | CertError::ValenceMismatch { .. }),
            "{err}"
        );
        let mut equal = c;
        equal.valences.1 = equal.valences.0;
        let err = verify(&Certificate::Unsolvable(equal), ma.as_ref()).unwrap_err();
        assert!(matches!(err, CertError::ValenceMismatch { .. }), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let (cert, _) = solvable_cert();
        let mut json = cert.to_json();
        let Json::Obj(fields) = &mut json else {
            unreachable!()
        };
        fields[0].1 = Json::Str("consensus-cert/v0".into());
        let err = Certificate::from_json(&json).unwrap_err();
        assert!(matches!(err, CertError::Version { .. }), "{err}");
    }
}

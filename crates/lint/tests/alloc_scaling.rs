//! Allocation scaling of the lint pass — a structural gate a noisy host
//! can check exactly, where a stopwatch cannot.
//!
//! Linting a suite eight times as long may allocate at most ten times as
//! often. What breaks that is a copy, per visited node, of something that
//! grows with the spec — the checked `Model` above all: copies per spec
//! grow with the spec and so does each copy, and 8× the text cost 23×
//! the allocations (and the milliseconds) while `infer_expr_type` cloned
//! the model per call.
//!
//! Own test binary, one test function: the counter is the process's
//! global allocator.

use cosy::suite::{standard_suite_source, SUITE, SUITE_PROPERTIES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter has no bearing on the
// memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` performs.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Replace whole-word occurrences of `word` by `word` + `suffix`.
fn suffix_word(text: &str, word: &str, suffix: &str) -> String {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = String::with_capacity(text.len() + 64);
    let mut rest = text;
    while let Some(at) = rest.find(word) {
        let before_ok = !rest[..at].chars().next_back().is_some_and(is_ident);
        let after = &rest[at + word.len()..];
        let after_ok = !after.chars().next().is_some_and(is_ident);
        out.push_str(&rest[..at + word.len()]);
        if before_ok && after_ok {
            out.push_str(suffix);
        }
        rest = after;
    }
    out.push_str(rest);
    out
}

/// The standard properties `copies` times over, the way the benchmark's
/// `spec_frontend` corpus builds its 2×/4×/8× suites: copy `i` renames
/// every property and constant (`_c<i>`) and raises its thresholds, so
/// the copies are related but not clones. (The benchmark also jitters
/// each threshold within its step, by seed; the midpoint stands in.)
fn synthetic_suite(copies: usize) -> String {
    let constants = [
        "ImbalanceThreshold",
        "FrequentCallThreshold",
        "GranularityThreshold",
    ];
    let mut out = standard_suite_source();
    for i in 1..copies {
        let suffix = format!("_c{i}");
        let mut text = SUITE_PROPERTIES.to_string();
        for name in SUITE.iter().map(|p| p.name).chain(constants) {
            text = suffix_word(&text, name, &suffix);
        }
        let step = 1.0 + 0.02 * i as f64 + 0.0025;
        text = text
            .replace("= 0.25;", &format!("= {:.6};", 0.25 * step))
            .replace("= 100.0;", &format!("= {:.4};", 100.0 * step))
            .replace("= 0.0001;", &format!("= {:.9};", 0.0001 * step));
        let floor = format!("{:.9}", 1e-6 * (i as f64 + 0.125));
        text = text
            .replace("> 0;", &format!("> {floor};"))
            .replace(">0;", &format!("> {floor};"));
        out.push_str(&text);
    }
    out
}

/// Allocations of one `lint` over an already checked spec.
fn lint_allocations(source: &str) -> (usize, lint::LintReport) {
    let spec = asl_core::parse_and_check(source)
        .unwrap_or_else(|d| panic!("suite does not check:\n{}", d.render(source)));
    allocations(|| lint::lint(&spec, source))
}

#[test]
fn lint_allocations_scale_with_the_spec_not_its_square() {
    let one = standard_suite_source();
    let eight = synthetic_suite(8);
    assert!(eight.len() > 6 * one.len(), "the 8× suite is 8× the text");

    let (n1, r1) = lint_allocations(&one);
    let (n8, r8) = lint_allocations(&eight);
    assert!(r1.is_clean(), "{}", r1.render_text(&one));
    assert!(
        r8.findings.len() > 100,
        "the copies lint against each other: {} findings",
        r8.findings.len()
    );

    // Measured: 3 631 and 28 546 (7.9×). With a `Model::clone` per
    // inference it was 48 274 and 1 126 111 (23.3×).
    assert!(
        n8 <= 10 * n1,
        "lint allocates {n8} times on the 8× suite, {n1} on the suite \
         ({:.1}×): a copy of the model — or of anything else that grows \
         with the spec — is made per node again",
        n8 as f64 / n1 as f64
    );
    // The measured count plus 25 % for the rules to grow into.
    assert!(
        n1 <= 4_540,
        "lint allocates {n1} times on the standard suite, ceiling 4540"
    );
}

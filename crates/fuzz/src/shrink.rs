//! Greedy spec shrinking: reduce a failing program to a minimal
//! reproducer.
//!
//! Candidates only ever *remove or simplify* — drop a statement,
//! splice a compound statement's body in its place, replace an
//! expression with a literal, drop an override or a whole unreferenced
//! class — so every candidate preserves the generator's structural
//! invariants and still lowers/verifies. The greedy descent itself is
//! [`jrt_testkit::minimize`]; the failure predicate is the oracle's
//! ([`crate::Oracle::diverges`] or [`crate::Oracle::violates`]).

use crate::spec::{Expr, MethodSpec, ProgramSpec, Resources, Stmt};

/// Applies `f` to method number `target` (canonical order) of a clone.
fn mutate(spec: &ProgramSpec, target: usize, f: impl FnOnce(&mut MethodSpec)) -> ProgramSpec {
    let mut s = spec.clone();
    let mut i = 0usize;
    let mut f = Some(f);
    s.for_each_method_mut(|m| {
        if i == target {
            if let Some(f) = f.take() {
                f(m);
            }
        }
        i += 1;
    });
    s
}

fn method_count(spec: &ProgramSpec) -> usize {
    let mut n = 0;
    spec.for_each_method(|_| n += 1);
    n
}

fn nth_body_len(spec: &ProgramSpec, target: usize) -> usize {
    let mut n = 0;
    let mut i = 0usize;
    spec.for_each_method(|m| {
        if i == target {
            n = m.body.len();
        }
        i += 1;
    });
    n
}

/// Replaces a compound statement with its spliced-in child bodies;
/// `None` for leaf statements.
fn flattened(s: &Stmt) -> Option<Vec<Stmt>> {
    match s {
        Stmt::If { then, els, .. } => {
            let mut v = then.clone();
            v.extend(els.iter().cloned());
            Some(v)
        }
        Stmt::Loop { body, .. } => Some(body.clone()),
        Stmt::Switch { arms, default, .. } => {
            let mut v: Vec<Stmt> = arms.iter().flatten().cloned().collect();
            v.extend(default.iter().cloned());
            Some(v)
        }
        Stmt::Locked(body) => Some(body.clone()),
        _ => None,
    }
}

/// Replaces the statement's own expressions with literals (bodies of
/// compound statements are left alone — flattening handles those).
/// Returns `false` when nothing would change.
fn simplify_stmt(s: &mut Stmt) -> bool {
    let one = Expr::Const(1);
    let simplify = |e: &mut Expr| {
        if matches!(e, Expr::Const(_)) {
            false
        } else {
            *e = one.clone();
            true
        }
    };
    match s {
        Stmt::StoreTemp(_, e)
        | Stmt::StoreStatic(_, e)
        | Stmt::StoreField(_, e)
        | Stmt::Print(e)
        | Stmt::PrintChar(e) => simplify(e),
        Stmt::StoreArr(_, idx, val) => {
            let a = simplify(idx);
            simplify(val) || a
        }
        Stmt::If { a, b, .. } => {
            let changed = simplify(a) || b.is_some();
            *b = None;
            changed
        }
        Stmt::Switch { key, .. } => simplify(key),
        Stmt::Loop { n, .. } => {
            let changed = *n > 1;
            *n = 1;
            changed
        }
        Stmt::RefOps { flag, .. } => simplify(flag),
        Stmt::Nop | Stmt::IncTemp(..) | Stmt::Locked(_) => false,
    }
}

fn expr_references_class(e: &Expr, class: u8) -> bool {
    let sub = |e: &Expr| expr_references_class(e, class);
    match e {
        Expr::Const(_)
        | Expr::Arg(_)
        | Expr::Temp(_)
        | Expr::GetStatic(_)
        | Expr::GetField(_)
        | Expr::ArrLen(_) => false,
        Expr::Bin(_, a, b) | Expr::RawDiv(a, b) | Expr::Shuffle(_, a, b) => sub(a) || sub(b),
        Expr::Neg(a) | Expr::ArrElem(_, a) | Expr::ArrElemRaw(a) => sub(a),
        Expr::CallStatic { class: c, args, .. } => *c == class || args.iter().any(sub),
        Expr::CallVirtual { arg, .. } => sub(arg),
        Expr::CallSpecial { class: c, arg, .. } => *c == class || sub(arg),
    }
}

fn stmt_references_class(s: &Stmt, class: u8) -> bool {
    let e = |e: &Expr| expr_references_class(e, class);
    let body = |b: &[Stmt]| b.iter().any(|s| stmt_references_class(s, class));
    match s {
        Stmt::Nop | Stmt::IncTemp(..) => false,
        Stmt::StoreTemp(_, x)
        | Stmt::StoreStatic(_, x)
        | Stmt::StoreField(_, x)
        | Stmt::Print(x)
        | Stmt::PrintChar(x) => e(x),
        Stmt::StoreArr(_, a, b) => e(a) || e(b),
        Stmt::If {
            a, b, then, els, ..
        } => e(a) || b.as_ref().is_some_and(e) || body(then) || body(els),
        Stmt::Loop { body: b, .. } => body(b),
        Stmt::Switch { key, arms, default } => {
            e(key) || arms.iter().any(|a| body(a)) || body(default)
        }
        Stmt::Locked(b) => body(b),
        Stmt::RefOps { flag, .. } => e(flag),
    }
}

fn spec_references_class(spec: &ProgramSpec, class: u8) -> bool {
    let mut found = false;
    spec.for_each_method(|m| {
        if m.res.obj_class == Some(class)
            || m.body.iter().any(|s| stmt_references_class(s, class))
            || expr_references_class(&m.ret, class)
        {
            found = true;
        }
    });
    found
}

/// All one-step shrink candidates of `spec`, biggest cuts first.
pub fn candidates(spec: &ProgramSpec) -> Vec<ProgramSpec> {
    let mut out = Vec::new();

    // Drop the last class when nothing refers to it.
    let last = (spec.classes.len() - 1) as u8;
    if last > 0 && !spec_references_class(spec, last) {
        let mut s = spec.clone();
        s.classes.pop();
        out.push(s);
    }

    // Drop subclass overrides (dispatch falls back to Main's impl).
    for (ci, c) in spec.classes.iter().enumerate().skip(1) {
        for (k, ov) in c.overrides.iter().enumerate() {
            if ov.is_some() {
                let mut s = spec.clone();
                s.classes[ci].overrides[k] = None;
                out.push(s);
            }
        }
    }

    let n_methods = method_count(spec);
    // Clear the resources of emptied methods: a body-less method with
    // a literal return can't touch its object/arrays, and dropping
    // `obj_class` unblocks whole-class removal.
    for mi in 0..n_methods {
        let unused = Resources {
            obj_class: None,
            int_arr: false,
            char_arr: false,
            byte_arr: false,
            ref_arr: false,
            ref_tmp: false,
        };
        let mut did = false;
        let cand = mutate(spec, mi, |m| {
            if m.body.is_empty() && matches!(m.ret, Expr::Const(_)) && m.res != unused {
                m.res = unused;
                did = true;
            }
        });
        if did {
            out.push(cand);
        }
    }
    // Remove single statements.
    for mi in 0..n_methods {
        for si in 0..nth_body_len(spec, mi) {
            out.push(mutate(spec, mi, |m| {
                m.body.remove(si);
            }));
        }
    }
    // Splice compound statements' bodies in their place.
    for mi in 0..n_methods {
        for si in 0..nth_body_len(spec, mi) {
            let mut did = false;
            let cand = mutate(spec, mi, |m| {
                if let Some(children) = flattened(&m.body[si]) {
                    m.body.splice(si..=si, children);
                    did = true;
                }
            });
            if did {
                out.push(cand);
            }
        }
    }
    // Literal-ize statement expressions; simplify returns.
    for mi in 0..n_methods {
        for si in 0..nth_body_len(spec, mi) {
            let mut did = false;
            let cand = mutate(spec, mi, |m| did = simplify_stmt(&mut m.body[si]));
            if did {
                out.push(cand);
            }
        }
        let mut did = false;
        let cand = mutate(spec, mi, |m| {
            if m.ret != Expr::Const(0) {
                m.ret = Expr::Const(0);
                did = true;
            }
        });
        if did {
            out.push(cand);
        }
        let mut did = false;
        let cand = mutate(spec, mi, |m| {
            if m.synchronized {
                m.synchronized = false;
                did = true;
            }
        });
        if did {
            out.push(cand);
        }
    }
    out
}

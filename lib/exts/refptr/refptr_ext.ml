(** The reference-counting pointer extension (§III-B): "we attach an extra
    4 bytes to every piece of memory that gets allocated … If another
    variable also becomes a reference for that same piece of data, then we
    increment this counter by one.  Anytime a variable goes out of scope,
    or gets assigned a new piece of data, then we decrement its reference
    counter by one.  If a reference counter ever reaches zero, then we
    free that data."

    This extension adds {e no concrete syntax}: its contribution is the
    translation behaviour.  Selecting it makes the driver lower programs
    with reference-count insertion ([Lower.lower_program ~rc:true]):
    matrix handles gain retain/release operations at assignments, scope
    exits, early returns and statement boundaries, and §III-C builds "the
    underlying implementation of matrices on top of the reference counting
    pointers".

    With no productions and no terminals, the extension trivially passes
    both composability analyses; the interesting guarantee is dynamic and
    machine-checked: after a translated program runs, its ledger in the
    runtime must hold no live cell (no leaks) and no cell may ever be
    double-freed — asserted by the test suite over every example
    program. *)

let name = "refptr"
let grammar : Grammar.Cfg.t = Grammar.Cfg.empty name
let check_hooks : Cminus.Check.hooks = Cminus.Check.no_hooks name
let lower_hooks : Cminus.Lower.hooks = Cminus.Lower.no_hooks name

(** Selecting this extension turns on rc insertion in the driver. *)
let enables_rc = true

let ag_spec : Ag.Wellformed.spec = { sp_name = name; attrs = []; prods = [] }

(* A deadline is the absolute wall-clock instant after which [expired]
   holds; [nan] encodes "never" so the representation stays an unboxed
   float and [expired] is a single comparison (any comparison with nan is
   false, which is exactly the disabled behaviour). *)

type t = float

let never = nan
let after s = if s > 0.0 then Unix.gettimeofday () +. s else never
let expired t = Unix.gettimeofday () > t

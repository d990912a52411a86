(* Root module of the [aig] library: the manager itself plus the
   SAT-encoding, interpolation and sweeping submodules. *)

include Graph
module Cnf = Cnf
module Interp = Interp
module Fraig = Fraig

(** And-Inverter Graph package: structural-hashed AIG manager
    ({!module-Graph} contents re-exported at the root), Tseitin CNF
    encoding ({!Cnf}), interpolation ({!Interp}) and SAT sweeping
    ({!Fraig}). *)

include module type of struct
  include Graph
end

module Cnf : module type of Cnf
module Interp : module type of Interp
module Fraig : module type of Fraig
